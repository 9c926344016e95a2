package cpu_test

import (
	"errors"
	"testing"

	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/image"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/seg"
	"repro/internal/trace"
	"repro/internal/trap"
	"repro/internal/word"
)

func TestAOSRequiresBothReadAndWrite(t *testing.T) {
	// AOS is a read-modify-write: with read allowed but write denied it
	// must fault and leave the operand unchanged.
	img := build(t, image.Config{},
		userProc("main", 4, 0, []word.Word{
			insPR(isa.AOS, 2, 0),
			ins(isa.HLT, 0),
		}),
		image.SegmentDef{
			Name: "ro", Words: []word.Word{word.FromInt(10)},
			Read: true, Write: true,
			Brackets: core.Brackets{R1: 1, R2: 5, R3: 5}, // readable at 4, writable only ≤1
		})
	dseg, _ := img.Segno("ro")
	if err := img.Start(4, "main", 0); err != nil {
		t.Fatal(err)
	}
	img.CPU.PR[2] = cpu.Pointer{Ring: 4, Segno: dseg, Wordno: 0}
	_, err := img.CPU.Run(100)
	var tr *trap.Trap
	if !errors.As(err, &tr) || tr.Violation.Kind != core.ViolationWriteBracket {
		t.Fatalf("err = %v", err)
	}
	w, _ := img.ReadWord("ro", 0)
	if w.Int64() != 10 {
		t.Errorf("operand changed to %d despite the violation", w.Int64())
	}
}

func TestEAPNeverValidates(t *testing.T) {
	// EAP forms the address of a word in a segment the ring cannot even
	// read — legal, because the operand is not referenced (Figure 7).
	img := build(t, image.Config{},
		userProc("main", 4, 0, []word.Word{
			isa.Instruction{Op: isa.EAP, PRRel: true, PR: 2, Tag: 3, Offset: 5}.Encode(),
			ins(isa.HLT, 0),
		}),
		dataSeg("supdata", 0, 1, 16))
	dseg, _ := img.Segno("supdata")
	if err := img.Start(4, "main", 0); err != nil {
		t.Fatal(err)
	}
	img.CPU.PR[2] = cpu.Pointer{Ring: 4, Segno: dseg, Wordno: 0}
	if _, err := img.CPU.Run(100); err != nil {
		t.Fatalf("EAP validated its operand: %v", err)
	}
	pr3 := img.CPU.PR[3]
	if pr3.Segno != dseg || pr3.Wordno != 5 || pr3.Ring != 4 {
		t.Errorf("PR3 = %v", pr3)
	}
}

func TestQRegisterOps(t *testing.T) {
	img := build(t, image.Config{},
		userProc("main", 4, 0, []word.Word{
			ins(isa.LIQ, 0o1234),
			insPR(isa.STQ, 2, 0),
			ins(isa.LIQ, 0),
			insPR(isa.LDQ, 2, 0),
			ins(isa.HLT, 0),
		}),
		dataSeg("data", 4, 5, 4))
	dseg, _ := img.Segno("data")
	if err := img.Start(4, "main", 0); err != nil {
		t.Fatal(err)
	}
	img.CPU.PR[2] = cpu.Pointer{Ring: 4, Segno: dseg, Wordno: 0}
	if _, err := img.CPU.Run(100); err != nil {
		t.Fatal(err)
	}
	if img.CPU.Q.Int64() != 0o1234 {
		t.Errorf("Q = %o", img.CPU.Q.Int64())
	}
}

func TestCarryAndBorrowIndicators(t *testing.T) {
	img := build(t, image.Config{},
		userProc("main", 4, 0, []word.Word{
			ins(isa.LIA, 0o777777), // -1 (all ones in low 18; sign-extended)
			insPR(isa.ADA, 2, 0),   // -1 + 1 = 0 with carry out
			ins(isa.HLT, 0),
		}),
		image.SegmentDef{
			Name: "data", Words: []word.Word{word.FromInt(1)},
			Read: true, Brackets: core.Brackets{R1: 0, R2: 5, R3: 5},
		})
	dseg, _ := img.Segno("data")
	if err := img.Start(4, "main", 0); err != nil {
		t.Fatal(err)
	}
	img.CPU.PR[2] = cpu.Pointer{Ring: 4, Segno: dseg, Wordno: 0}
	if _, err := img.CPU.Run(100); err != nil {
		t.Fatal(err)
	}
	c := img.CPU
	if !c.A.IsZero() || !c.Ind.Zero || !c.Ind.Carry {
		t.Errorf("A=%v zero=%v carry=%v", c.A, c.Ind.Zero, c.Ind.Carry)
	}
}

func TestDeepIndirectChainAtLimit(t *testing.T) {
	// A chain of exactly MaxIndirections (8) words is legal; one more
	// traps.
	buildChain := func(depth int) *image.Image {
		words := []word.Word{
			insInd(isa.LDA, 2),
			ins(isa.HLT, 0),
		}
		for i := 0; i < depth; i++ {
			words = append(words, 0) // chain placeholders at offsets 2..
		}
		words = append(words, word.FromInt(99)) // final operand
		img := build(t, image.Config{}, userProc("main", 4, 0, words))
		mainSeg, _ := img.Segno("main")
		for i := 0; i < depth; i++ {
			further := i < depth-1
			target := uint32(2 + i + 1)
			if !further {
				target = uint32(2 + depth) // the operand
			}
			if err := img.WriteWord("main", uint32(2+i), indWord(0, mainSeg, target, further)); err != nil {
				t.Fatal(err)
			}
		}
		return img
	}

	img := buildChain(8)
	run(t, img, 4, "main", 0)
	if img.CPU.A.Int64() != 99 {
		t.Errorf("A = %d", img.CPU.A.Int64())
	}

	img = buildChain(9)
	runExpectTrap(t, img, 4, "main", 0, trap.IndirectLimit)
}

func TestRETTWithEmptySaveStack(t *testing.T) {
	img := build(t, image.Config{},
		image.SegmentDef{
			Name: "sup", Words: []word.Word{ins(isa.RETT, 0)},
			Read: true, Execute: true,
			Brackets: core.Brackets{R1: 0, R2: 0, R3: 0},
		})
	runExpectTrap(t, img, 0, "sup", 0, trap.IllegalOpcode)
}

// TestLDBRSwitchesVirtualMemories is the paper's multi-VM mechanism at
// the instruction level: ring-0 code loads a new descriptor base and
// the same two-part address suddenly names a different process's
// segment.
func TestLDBRSwitchesVirtualMemories(t *testing.T) {
	img := build(t, image.Config{MaxSegments: 64},
		image.SegmentDef{
			Name: "sup", Words: []word.Word{
				insPR(isa.LDA, 2, 0),  // A := segment 20 word 0 (old VM)
				insPR(isa.LDBR, 3, 0), // switch descriptor segments
				insPR(isa.ADA, 2, 0),  // A += segment 20 word 0 (new VM)
				ins(isa.HLT, 0),
			},
			Read: true, Execute: true,
			Brackets: core.Brackets{R1: 0, R2: 0, R3: 0},
		},
		image.SegmentDef{
			Name: "valA", Words: []word.Word{word.FromInt(100)},
			Read: true, Brackets: core.Brackets{R1: 0, R2: 5, R3: 5},
		},
		image.SegmentDef{
			Name: "valB", Words: []word.Word{word.FromInt(23)},
			Read: true, Brackets: core.Brackets{R1: 0, R2: 5, R3: 5},
		},
		dataSeg("dbrimage", 0, 0, 4))
	c := img.CPU

	// Build a second descriptor segment: identical except segment 20
	// maps to valB instead of valA.
	const probe = 20
	valA, _ := img.Segno("valA")
	valB, _ := img.Segno("valB")
	sdwA, _ := img.SDW(valA)
	sdwB, _ := img.SDW(valB)
	if err := c.Table().Store(probe, sdwA); err != nil {
		t.Fatal(err)
	}
	base2, err := img.Alloc.Alloc(2 * 64)
	if err != nil {
		t.Fatal(err)
	}
	dbr2 := seg.DBR{Addr: uint32(base2), Bound: 64}
	tbl2 := seg.Table{Mem: c.Mem(), DBR: dbr2}
	// Copy the needed SDWs into the second VM.
	supSeg, _ := img.Segno("sup")
	supSDW, _ := img.SDW(supSeg)
	dimgSeg, _ := img.Segno("dbrimage")
	dimgSDW, _ := img.SDW(dimgSeg)
	for segno, sdw := range map[uint32]seg.SDW{
		supSeg: supSDW, dimgSeg: dimgSDW, probe: sdwB,
		0: mustSDW(t, img, 0), // ring-0 stack for completeness
	} {
		if err := tbl2.Store(segno, sdw); err != nil {
			t.Fatal(err)
		}
	}
	even, odd := dbr2.Encode()
	if err := img.WriteWord("dbrimage", 0, even); err != nil {
		t.Fatal(err)
	}
	if err := img.WriteWord("dbrimage", 1, odd); err != nil {
		t.Fatal(err)
	}

	if err := img.Start(0, "sup", 0); err != nil {
		t.Fatal(err)
	}
	c.PR[2] = cpu.Pointer{Ring: 0, Segno: probe, Wordno: 0}
	c.PR[3] = cpu.Pointer{Ring: 0, Segno: dimgSeg, Wordno: 0}
	if _, err := c.Run(100); err != nil {
		t.Fatal(err)
	}
	if got := c.A.Int64(); got != 123 {
		t.Errorf("A = %d, want 123 (100 from the first VM + 23 from the second)", got)
	}
}

func mustSDW(t *testing.T, img *image.Image, segno uint32) seg.SDW {
	t.Helper()
	sdw, err := img.SDW(segno)
	if err != nil {
		t.Fatal(err)
	}
	return sdw
}

func TestShiftOps(t *testing.T) {
	img := build(t, image.Config{},
		userProc("main", 4, 0, []word.Word{
			ins(isa.LIA, 1),
			ins(isa.ALS, 10), // A = 1024
			ins(isa.ARS, 4),  // A = 64
			ins(isa.HLT, 0),
		}))
	run(t, img, 4, "main", 0)
	if img.CPU.A.Int64() != 64 {
		t.Errorf("A = %d", img.CPU.A.Int64())
	}
}

func TestSTICWriteValidated(t *testing.T) {
	// STIC is a store: writing the return point into a read-only
	// segment must fault.
	img := build(t, image.Config{},
		userProc("main", 4, 0, []word.Word{
			isa.Instruction{Op: isa.STIC, PRRel: true, PR: 2, Tag: 1, Offset: 0}.Encode(),
			ins(isa.HLT, 0),
		}),
		image.SegmentDef{
			Name: "ro", Size: 4, Read: true,
			Brackets: core.Brackets{R1: 4, R2: 5, R3: 5},
		})
	dseg, _ := img.Segno("ro")
	if err := img.Start(4, "main", 0); err != nil {
		t.Fatal(err)
	}
	img.CPU.PR[2] = cpu.Pointer{Ring: 4, Segno: dseg, Wordno: 0}
	_, err := img.CPU.Run(100)
	var tr *trap.Trap
	if !errors.As(err, &tr) || tr.Violation.Kind != core.ViolationNoWrite {
		t.Fatalf("err = %v", err)
	}
}

func TestTraceBufferLimitDuringRun(t *testing.T) {
	img := callImage(t)
	buf := newLimitedBuffer(4)
	img.CPU.SetTracer(buf)
	run(t, img, 4, "main", 0)
	if len(buf.Events) != 4 || buf.Dropped == 0 {
		t.Errorf("events=%d dropped=%d", len(buf.Events), buf.Dropped)
	}
}

// newLimitedBuffer is a tiny helper for the trace-limit test.
func newLimitedBuffer(limit int) *trace.Buffer {
	return &trace.Buffer{Limit: limit}
}

func TestInterruptDelivery(t *testing.T) {
	img := build(t, image.Config{},
		userProc("main", 4, 0, []word.Word{
			ins(isa.NOP, 0),
			ins(isa.NOP, 0),
			ins(isa.NOP, 0),
			ins(isa.HLT, 0),
		}))
	c := img.CPU
	fired := false
	delivered := 0
	c.Handler = cpu.TrapHandlerFunc(func(c *cpu.CPU, tr *trap.Trap) cpu.TrapAction {
		if tr.Code != trap.TimerInterrupt || tr.Service != 42 {
			return cpu.TrapHalt
		}
		delivered++
		if err := c.RestoreSaved(); err != nil {
			return cpu.TrapHalt
		}
		return cpu.TrapResume
	})
	if err := img.Start(4, "main", 0); err != nil {
		t.Fatal(err)
	}
	c.PostInterrupt(cpu.Interrupt{
		After:  2,
		Code:   trap.TimerInterrupt,
		Detail: 42,
		Fire:   func(*cpu.CPU) error { fired = true; return nil },
	})
	if c.PendingInterrupts() != 1 {
		t.Fatal("interrupt not queued")
	}
	if _, err := c.Run(100); err != nil {
		t.Fatal(err)
	}
	if !fired || delivered != 1 {
		t.Errorf("fired=%v delivered=%d", fired, delivered)
	}
	if c.PendingInterrupts() != 0 {
		t.Error("queue not drained")
	}
	// A queued interrupt can also be discarded.
	c.PostInterrupt(cpu.Interrupt{After: 5, Code: trap.TimerInterrupt})
	c.ClearInterrupts()
	if c.PendingInterrupts() != 0 {
		t.Error("ClearInterrupts left entries")
	}
}

func TestSmallStringersAndDefaults(t *testing.T) {
	p := cpu.Pointer{Ring: 3, Segno: 0o12, Wordno: 0o34}
	if s := p.String(); s != "(12|34) ring 3" {
		t.Errorf("pointer string %q", s)
	}
	for _, r := range []cpu.StopReason{cpu.StopHalt, cpu.StopTrap, cpu.StopLimit, cpu.StopReason(9)} {
		if r.String() == "" {
			t.Errorf("empty string for %d", r)
		}
	}
	// New applies defaults for zero options.
	c := cpu.New(mem.New(64), cpu.Options{})
	if c.Opt.MaxIndirections != 8 {
		t.Errorf("MaxIndirections default %d", c.Opt.MaxIndirections)
	}
	if c.Opt.Costs == (cpu.Costs{}) {
		t.Error("costs not defaulted")
	}
	c.AddCycles(7)
	if c.Cycles != 7 {
		t.Error("AddCycles")
	}
	if c.PeekSaved() != nil {
		t.Error("PeekSaved on empty stack")
	}
	if err := c.DropSaved(); err == nil {
		t.Error("DropSaved on empty stack accepted")
	}
}

func TestSDWCacheHitsAndInvalidation(t *testing.T) {
	opt := cpu.DefaultOptions()
	opt.SDWCache = true
	img, err := image.Build(image.Config{CPUOptions: &opt}, []image.SegmentDef{
		userProc("main", 4, 0, []word.Word{
			insPR(isa.LDA, 2, 0),
			insPR(isa.LDA, 2, 0),
			insPR(isa.LDA, 2, 0),
			ins(isa.HLT, 0),
		}),
		dataSeg("data", 4, 5, 8),
	})
	if err != nil {
		t.Fatal(err)
	}
	dseg, _ := img.Segno("data")
	if err := img.Start(4, "main", 0); err != nil {
		t.Fatal(err)
	}
	c := img.CPU
	c.PR[2] = cpu.Pointer{Ring: 4, Segno: dseg, Wordno: 0}
	if _, err := c.Run(100); err != nil {
		t.Fatal(err)
	}
	stats := c.MMU.CacheStats()
	// Two segments touched (main, data): 2 cold misses; everything else
	// hits.
	if stats.Misses != 2 {
		t.Errorf("misses = %d, want 2", stats.Misses)
	}
	if stats.Hits < 5 {
		t.Errorf("hits = %d, suspiciously few", stats.Hits)
	}

	// Descriptor edits must be immediately effective: shrink the data
	// segment's read bracket through StoreSDW and re-run — the read now
	// faults even though the old SDW was cached.
	sdw, err := img.SDW(dseg)
	if err != nil {
		t.Fatal(err)
	}
	sdw.Brackets = core.Brackets{R1: 1, R2: 1, R3: 1}
	if err := c.MMU.StoreSDW(dseg, sdw); err != nil {
		t.Fatal(err)
	}
	if err := img.Start(4, "main", 0); err != nil {
		t.Fatal(err)
	}
	c.PR[2] = cpu.Pointer{Ring: 4, Segno: dseg, Wordno: 0}
	if _, err := c.Run(100); err == nil {
		t.Fatal("stale SDW honoured after StoreSDW")
	}
}

func TestSDWCacheFlushOnLDBR(t *testing.T) {
	opt := cpu.DefaultOptions()
	opt.SDWCache = true
	img, err := image.Build(image.Config{CPUOptions: &opt, MaxSegments: 64}, []image.SegmentDef{
		{
			Name: "sup", Words: []word.Word{
				insPR(isa.LDA, 2, 0),
				insPR(isa.LDBR, 3, 0),
				insPR(isa.LDA, 2, 0),
				ins(isa.HLT, 0),
			},
			Read: true, Execute: true,
			Brackets: core.Brackets{R1: 0, R2: 0, R3: 0},
		},
		{
			Name: "valA", Words: []word.Word{word.FromInt(11)},
			Read: true, Brackets: core.Brackets{R1: 0, R2: 5, R3: 5},
		},
		{
			Name: "valB", Words: []word.Word{word.FromInt(31)},
			Read: true, Brackets: core.Brackets{R1: 0, R2: 5, R3: 5},
		},
		dataSeg("dbrimage", 0, 0, 4),
	})
	if err != nil {
		t.Fatal(err)
	}
	c := img.CPU
	const probe = 20
	valA, _ := img.Segno("valA")
	valB, _ := img.Segno("valB")
	sdwA := mustSDW(t, img, valA)
	sdwB := mustSDW(t, img, valB)
	if err := c.MMU.StoreSDW(probe, sdwA); err != nil {
		t.Fatal(err)
	}
	base2, err := img.Alloc.Alloc(2 * 64)
	if err != nil {
		t.Fatal(err)
	}
	dbr2 := seg.DBR{Addr: uint32(base2), Bound: 64}
	tbl2 := seg.Table{Mem: c.Mem(), DBR: dbr2}
	supSeg, _ := img.Segno("sup")
	dimgSeg, _ := img.Segno("dbrimage")
	for segno, sdw := range map[uint32]seg.SDW{
		supSeg: mustSDW(t, img, supSeg), dimgSeg: mustSDW(t, img, dimgSeg),
		probe: sdwB, 0: mustSDW(t, img, 0),
	} {
		if err := tbl2.Store(segno, sdw); err != nil {
			t.Fatal(err)
		}
	}
	even, odd := dbr2.Encode()
	_ = img.WriteWord("dbrimage", 0, even)
	_ = img.WriteWord("dbrimage", 1, odd)

	if err := img.Start(0, "sup", 0); err != nil {
		t.Fatal(err)
	}
	c.PR[2] = cpu.Pointer{Ring: 0, Segno: probe, Wordno: 0}
	c.PR[3] = cpu.Pointer{Ring: 0, Segno: dimgSeg, Wordno: 0}
	if _, err := c.Run(100); err != nil {
		t.Fatal(err)
	}
	// Without the LDBR flush the cached probe SDW (valA) would leak
	// into the second virtual memory and A would be 11 again.
	if got := c.A.Int64(); got != 31 {
		t.Errorf("A = %d, want 31 (cache flushed on LDBR)", got)
	}
}
