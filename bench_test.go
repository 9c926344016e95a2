// Benchmark suite: one benchmark per figure (F1-F9) and per claim table
// (T1-T5) of the paper, as indexed in DESIGN.md. The experiment harness
// (cmd/ringbench) reports simulated cycles for the same workloads; these
// benchmarks report host time and allocations under the Go benchmark
// harness.
package repro_test

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/asm"
	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/exp"
	"repro/internal/figures"
	"repro/internal/image"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/paging"
	"repro/internal/seg"
	"repro/internal/softring"
	"repro/internal/sup"
	"repro/internal/word"
	"repro/rings"
)

// ---- Figure 1: writable data segment access checks ----

func BenchmarkFig1AccessCheck(b *testing.B) {
	v := figures.Figure1View()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ring := core.Ring(i & 7)
		_ = core.CheckWrite(v, 10, ring)
		_ = core.CheckRead(v, 10, ring)
	}
}

// ---- Figure 2: gated procedure CALL decision ----

func BenchmarkFig2GateCheck(b *testing.B) {
	v := figures.Figure2View()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_, _ = core.DecideCall(v, uint32(i&1), 4, 4, false)
	}
}

// ---- Figure 3: storage format encode/decode ----

func BenchmarkFig3SDWRoundTrip(b *testing.B) {
	s := seg.SDW{
		Present: true, Addr: 0o1000, Bound: 0o2000,
		Read: true, Execute: true,
		Brackets: core.Brackets{R1: 3, R2: 3, R3: 5}, Gate: 2,
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		even, odd := s.Encode()
		s = seg.Decode(even, odd)
	}
}

func BenchmarkFig3InstructionRoundTrip(b *testing.B) {
	ins := isa.Instruction{Op: isa.LDA, Ind: true, PRRel: true, PR: 6, Tag: 3, Offset: 0o1234}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ins = isa.DecodeInstruction(ins.Encode())
	}
}

// ---- machine single-instruction benches (Figures 4-7) ----

// stepBench builds a one-segment machine whose word 0 holds the probe
// instruction, then measures one full instruction cycle (fetch
// validation, effective address formation, operand validation,
// execution) per iteration.
func stepBench(b *testing.B, defs []image.SegmentDef, setup func(*image.Image)) {
	b.Helper()
	img, err := image.Build(image.Config{MemWords: 1 << 16, MaxSegments: 32}, defs)
	if err != nil {
		b.Fatal(err)
	}
	if err := img.Start(4, "probe", 0); err != nil {
		b.Fatal(err)
	}
	if setup != nil {
		setup(img)
	}
	c := img.CPU
	start := c.IPR
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.IPR = start
		if err := c.Step(); err != nil {
			b.Fatal(err)
		}
	}
}

func probeSeg(words ...word.Word) image.SegmentDef {
	return image.SegmentDef{
		Name: "probe", Words: words, Size: 16,
		Read: true, Write: true, Execute: true,
		Brackets: core.Brackets{R1: 4, R2: 4, R3: 4},
	}
}

// BenchmarkFig4Fetch measures the instruction-retrieval path (Figure 4):
// a NOP is fetch-validated and executed.
func BenchmarkFig4Fetch(b *testing.B) {
	stepBench(b, []image.SegmentDef{
		probeSeg(isa.Instruction{Op: isa.NOP}.Encode()),
	}, nil)
}

// BenchmarkFig5EffectiveAddress measures effective address formation
// with a two-level indirect chain (Figure 5).
func BenchmarkFig5EffectiveAddress(b *testing.B) {
	ind1 := isa.Indirect{Ring: 4, Segno: 0, Wordno: 2, Further: true}
	ind2 := isa.Indirect{Ring: 4, Segno: 0, Wordno: 3}
	stepBench(b, []image.SegmentDef{
		probeSeg(
			isa.Instruction{Op: isa.LDA, Ind: true, Offset: 1}.Encode(),
			ind1.Encode(), // patched to self segno below
			ind2.Encode(), // patched below
			word.FromInt(7),
		),
	}, func(img *image.Image) {
		segno, _ := img.Segno("probe")
		i1 := ind1
		i1.Segno = segno
		i2 := ind2
		i2.Segno = segno
		_ = img.WriteWord("probe", 1, i1.Encode())
		_ = img.WriteWord("probe", 2, i2.Encode())
	})
}

// BenchmarkFig6Read and Fig6Write measure validated operand references.
func BenchmarkFig6Read(b *testing.B) {
	stepBench(b, []image.SegmentDef{
		probeSeg(
			isa.Instruction{Op: isa.LDA, Offset: 2}.Encode(),
			0, word.FromInt(5),
		),
	}, nil)
}

func BenchmarkFig6Write(b *testing.B) {
	stepBench(b, []image.SegmentDef{
		probeSeg(isa.Instruction{Op: isa.STA, Offset: 2}.Encode()),
	}, nil)
}

// BenchmarkFig7Transfer measures the transfer advance check.
func BenchmarkFig7Transfer(b *testing.B) {
	stepBench(b, []image.SegmentDef{
		probeSeg(isa.Instruction{Op: isa.TRA, Offset: 1}.Encode(),
			isa.Instruction{Op: isa.NOP}.Encode()),
	}, nil)
}

// ---- Figures 8 and 9, and tables T1-T5: call/return kernels ----

// kernelBench builds the canonical call/return kernel once and measures
// complete round trips: each iteration resets the loop counter and runs
// `trips` call/return pairs.
func kernelBench(b *testing.B, p exp.CallKernelParams, software bool, argWords int) {
	b.Helper()
	prog, err := asm.Assemble(p.Source())
	if err != nil {
		b.Fatal(err)
	}
	countOff := prog.Segment("main").Symbols["count"]

	if software {
		m, err := p.BuildSoftware()
		if err != nil {
			b.Fatal(err)
		}
		m.ArgWords = argWords
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			if err := m.Img.WriteWord("main", countOff, 0); err != nil {
				b.Fatal(err)
			}
			if err := m.Start(p.CallerRing, "main", 0); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
			if _, err := m.Run(200*p.Iterations + 1000); err != nil {
				b.Fatal(err)
			}
		}
		return
	}

	img, err := p.BuildHardware(nil)
	if err != nil {
		b.Fatal(err)
	}
	sup.Attach(img, "bench")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		if err := img.WriteWord("main", countOff, 0); err != nil {
			b.Fatal(err)
		}
		if err := img.Start(p.CallerRing, "main", 0); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if _, err := img.CPU.Run(200*p.Iterations + 1000); err != nil {
			b.Fatal(err)
		}
	}
}

const benchTrips = 16

// BenchmarkFig8Call: downward call/upward return round trips in
// hardware (each op = 16 round trips).
func BenchmarkFig8Call(b *testing.B) {
	kernelBench(b, exp.CallKernelParams{CallerRing: 4, ServiceRing: 1, Iterations: benchTrips}, false, 0)
}

// BenchmarkFig9Return isolates the upward-return-heavy variant: the
// same kernel measured under the DBR stack rule ablation (Figure 8
// footnote) to show the rule has no measurable cost.
func BenchmarkFig9Return(b *testing.B) {
	b.Run("stack-rule=ring-is-segno", func(b *testing.B) {
		kernelBench(b, exp.CallKernelParams{CallerRing: 4, ServiceRing: 1, Iterations: benchTrips}, false, 0)
	})
	b.Run("stack-rule=dbr-base", func(b *testing.B) {
		p := exp.CallKernelParams{CallerRing: 4, ServiceRing: 1, Iterations: benchTrips}
		prog, err := asm.Assemble(p.Source())
		if err != nil {
			b.Fatal(err)
		}
		countOff := prog.Segment("main").Symbols["count"]
		img, err := asm.BuildImage(image.Config{StackRule: cpu.StackDBRBase}, prog)
		if err != nil {
			b.Fatal(err)
		}
		sup.Attach(img, "bench")
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			if err := img.WriteWord("main", countOff, 0); err != nil {
				b.Fatal(err)
			}
			if err := img.Start(4, "main", 0); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
			if _, err := img.CPU.Run(10000); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkT1HardwareVsSoftwareCall: the headline comparison.
func BenchmarkT1HardwareVsSoftwareCall(b *testing.B) {
	p := exp.CallKernelParams{CallerRing: 4, ServiceRing: 1, Iterations: benchTrips}
	b.Run("hardware-rings", func(b *testing.B) { kernelBench(b, p, false, 0) })
	b.Run("software-rings-645", func(b *testing.B) { kernelBench(b, p, true, 0) })
}

// BenchmarkT2SameVsCrossRing: identical caller code, same cost.
func BenchmarkT2SameVsCrossRing(b *testing.B) {
	b.Run("same-ring", func(b *testing.B) {
		kernelBench(b, exp.CallKernelParams{CallerRing: 4, ServiceRing: 4, Iterations: benchTrips}, false, 0)
	})
	b.Run("cross-ring", func(b *testing.B) {
		kernelBench(b, exp.CallKernelParams{CallerRing: 4, ServiceRing: 1, Iterations: benchTrips}, false, 0)
	})
}

// BenchmarkT3ArgumentValidation: argument passing across the ring
// boundary, hardware vs software validation.
func BenchmarkT3ArgumentValidation(b *testing.B) {
	for _, args := range []int{1, 4} {
		p := exp.CallKernelParams{CallerRing: 4, ServiceRing: 1, Iterations: benchTrips, Args: args}
		b.Run(benchName("hardware-args", args), func(b *testing.B) { kernelBench(b, p, false, 0) })
		b.Run(benchName("software-args", args), func(b *testing.B) { kernelBench(b, p, true, args) })
	}
}

func benchName(prefix string, n int) string {
	return prefix + "-" + string(rune('0'+n))
}

// BenchmarkT4UpwardCall: mediated upward call round trips.
func BenchmarkT4UpwardCall(b *testing.B) {
	kernelBench(b, exp.CallKernelParams{CallerRing: 1, ServiceRing: 4, Iterations: benchTrips}, false, 0)
}

// BenchmarkT5ValidationOverhead: the ablation — identical straight-line
// kernel with the ring validation logic on and off. The simulated
// cycle counts are equal (see ringbench -exp T5); the host-time delta
// here is the cost of the comparison logic itself.
func BenchmarkT5ValidationOverhead(b *testing.B) {
	build := func(validate bool) *image.Image {
		opt := cpu.DefaultOptions()
		opt.Validate = validate
		prog, err := asm.Assemble(`
        .seg    main
        .bracket 4,4,4
        .access rwe
loop:   lda     a
        ada     bb
        sta     a
        aos     count
        lda     count
        cma     limit
        tnz     loop
        hlt
a:      .word   1
bb:     .word   2
count:  .word   0
limit:  .word   64
`)
		if err != nil {
			b.Fatal(err)
		}
		img, err := asm.BuildImage(image.Config{CPUOptions: &opt}, prog)
		if err != nil {
			b.Fatal(err)
		}
		return img
	}
	for _, validate := range []bool{true, false} {
		name := "validation-on"
		if !validate {
			name = "validation-off"
		}
		img := build(validate)
		countOff := uint32(9) // label positions: loop..hlt = 0..7, a=8, bb=9, count=10
		countOff = 10
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				if err := img.WriteWord("main", countOff, 0); err != nil {
					b.Fatal(err)
				}
				if err := img.Start(4, "main", 0); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				if _, err := img.CPU.Run(10000); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSoftringWrap measures baseline machine construction (the
// per-process cost of materializing eight descriptor segments — the
// storage/setup overhead the hardware scheme avoids).
func BenchmarkSoftringWrap(b *testing.B) {
	p := exp.CallKernelParams{CallerRing: 4, ServiceRing: 1, Iterations: 1}
	prog, err := asm.Assemble(p.Source())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		img, err := asm.BuildImage(image.Config{MemWords: 1 << 17}, prog)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := softring.Wrap(img); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCallChainDepth measures nested downward call chains (main in
// a high ring calling through 1, 2 or 3 gated layers), each with the
// full frame protocol — the layered-supervisor shape.
func BenchmarkCallChainDepth(b *testing.B) {
	cases := []struct {
		name   string
		caller core.Ring
		chain  []core.Ring
	}{
		{"depth-1", 5, []core.Ring{1}},
		{"depth-2", 5, []core.Ring{3, 1}},
		{"depth-3", 6, []core.Ring{4, 2, 0}},
	}
	for _, tc := range cases {
		tc := tc
		b.Run(tc.name, func(b *testing.B) {
			prog, err := asm.Assemble(exp.ChainKernelSource(tc.caller, tc.chain, benchTrips))
			if err != nil {
				b.Fatal(err)
			}
			countOff := prog.Segment("main").Symbols["count"]
			img, err := asm.BuildImage(image.Config{}, prog)
			if err != nil {
				b.Fatal(err)
			}
			sup.Attach(img, "bench")
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				if err := img.WriteWord("main", countOff, 0); err != nil {
					b.Fatal(err)
				}
				if err := img.Start(tc.caller, "main", 0); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				if _, err := img.CPU.Run(100000); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkIndirectChainDepth measures effective-address formation as
// the indirect chain deepens (each level revalidates and re-maxes the
// effective ring).
func BenchmarkIndirectChainDepth(b *testing.B) {
	for _, depth := range []int{1, 4, 8} {
		depth := depth
		b.Run(map[int]string{1: "depth-1", 4: "depth-4", 8: "depth-8"}[depth], func(b *testing.B) {
			words := []word.Word{
				isa.Instruction{Op: isa.LDA, Ind: true, Offset: 2}.Encode(),
				isa.Instruction{Op: isa.NOP}.Encode(),
			}
			for i := 0; i < depth; i++ {
				words = append(words, 0)
			}
			words = append(words, word.FromInt(5))
			img, err := image.Build(image.Config{MemWords: 1 << 16, MaxSegments: 32},
				[]image.SegmentDef{{
					Name: "probe", Words: words,
					Read: true, Execute: true,
					Brackets: core.Brackets{R1: 4, R2: 4, R3: 4},
				}})
			if err != nil {
				b.Fatal(err)
			}
			segno, _ := img.Segno("probe")
			for i := 0; i < depth; i++ {
				further := i < depth-1
				target := uint32(2 + i + 1)
				if !further {
					target = uint32(2 + depth)
				}
				ind := isa.Indirect{Ring: 4, Segno: segno, Wordno: target, Further: further}
				if err := img.WriteWord("probe", uint32(2+i), ind.Encode()); err != nil {
					b.Fatal(err)
				}
			}
			if err := img.Start(4, "probe", 0); err != nil {
				b.Fatal(err)
			}
			c := img.CPU
			start := c.IPR
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c.IPR = start
				if err := c.Step(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkPagedVsFlat measures the host-time cost of the paging layer
// for the same workload (the architectural cost is zero; see T7).
func BenchmarkPagedVsFlat(b *testing.B) {
	runOnce := func(b *testing.B, backing mem.Store) {
		b.Helper()
		prog, err := asm.Assemble(exp.CallKernelParams{CallerRing: 4, ServiceRing: 1, Iterations: benchTrips}.Source())
		if err != nil {
			b.Fatal(err)
		}
		countOff := prog.Segment("main").Symbols["count"]
		cfg := image.Config{}
		if backing != nil {
			cfg.Backing = backing
		} else {
			cfg.MemWords = 1 << 18
		}
		img, err := asm.BuildImage(cfg, prog)
		if err != nil {
			b.Fatal(err)
		}
		sup.Attach(img, "bench")
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			if err := img.WriteWord("main", countOff, 0); err != nil {
				b.Fatal(err)
			}
			if err := img.Start(4, "main", 0); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
			if _, err := img.CPU.Run(100000); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("flat", func(b *testing.B) { runOnce(b, nil) })
	b.Run("paged", func(b *testing.B) {
		space, err := paging.New(1<<18, 256)
		if err != nil {
			b.Fatal(err)
		}
		runOnce(b, space)
	})
}

// BenchmarkGateCheckAblation measures the CALL decision with and
// without the same-segment gate exemption (the paper's error-detection
// design choice: every inter-segment CALL must hit a gate, intra-
// segment calls are exempt).
func BenchmarkGateCheckAblation(b *testing.B) {
	v := figures.Figure2View()
	b.Run("cross-segment-gated", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_, _ = core.DecideCall(v, uint32(i&1), 4, 4, false)
		}
	})
	b.Run("same-segment-exempt", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_, _ = core.DecideCall(v, uint32(100+i&63), 3, 3, true)
		}
	})
}

// BenchmarkDynamicLinking measures the one-time linkage-fault cost
// against the steady-state snapped-link call.
func BenchmarkDynamicLinking(b *testing.B) {
	const dynSrc = `
        .seg    main
        .bracket 4,4,4
        stic    pr6|0,+1
        call    lib$fn
        hlt

        .seg    lib
        .bracket 1,1,5
        .gate   fn
fn:     eap5    *pr0|0
        spr6    pr5|0
        eap6    *pr5|0
        return  *pr6|0
`
	b.Run("first-call-with-snap", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			s, _, err := sup.BootDeferred("bench", dynSrc)
			if err != nil {
				b.Fatal(err)
			}
			if err := s.Img.Start(4, "main", 0); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
			if _, err := s.Img.CPU.Run(1000); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("snapped-steady-state", func(b *testing.B) {
		s, _, err := sup.BootDeferred("bench", dynSrc)
		if err != nil {
			b.Fatal(err)
		}
		// Warm: snap the links.
		if err := s.Img.Start(4, "main", 0); err != nil {
			b.Fatal(err)
		}
		if _, err := s.Img.CPU.Run(1000); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			if err := s.Img.Start(4, "main", 0); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
			if _, err := s.Img.CPU.Run(1000); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkSDWCache measures the host-time effect of the associative
// memory for SDWs (T10 reports the simulated-cycle effect).
func BenchmarkSDWCache(b *testing.B) {
	for _, cache := range []bool{false, true} {
		name := "cache-off"
		if cache {
			name = "cache-on"
		}
		opt := cpu.DefaultOptions()
		opt.SDWCache = cache
		p := exp.CallKernelParams{CallerRing: 4, ServiceRing: 1, Iterations: benchTrips}
		prog, err := asm.Assemble(p.Source())
		if err != nil {
			b.Fatal(err)
		}
		countOff := prog.Segment("main").Symbols["count"]
		img, err := asm.BuildImage(image.Config{CPUOptions: &opt}, prog)
		if err != nil {
			b.Fatal(err)
		}
		sup.Attach(img, "bench")
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				if err := img.WriteWord("main", countOff, 0); err != nil {
					b.Fatal(err)
				}
				if err := img.Start(4, "main", 0); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				if _, err := img.CPU.Run(100000); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// ---- Traceless access path: the zero-allocation guarantee ----

// tracelessImage builds a cross-ring call kernel that never halts, for
// steady-state stepping with the trace sink disabled.
func tracelessImage(tb testing.TB) *image.Image {
	tb.Helper()
	opt := cpu.DefaultOptions()
	opt.SDWCache = true
	p := exp.CallKernelParams{CallerRing: 4, ServiceRing: 1, Iterations: 1 << 30}
	img, err := p.BuildHardware(&opt)
	if err != nil {
		tb.Fatal(err)
	}
	if err := img.Start(4, "main", 0); err != nil {
		tb.Fatal(err)
	}
	return img
}

// BenchmarkTracelessStep measures the per-instruction cost of the full
// MMU access path (SDW fetch, bracket validation, cross-ring CALL and
// RETURN) with no sink attached. The path is required to be
// allocation-free: 0 B/op here is an acceptance criterion, asserted by
// TestTracelessStepZeroAlloc.
func BenchmarkTracelessStep(b *testing.B) {
	img := tracelessImage(b)
	c := img.CPU
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.Step(); err != nil {
			b.Fatal(err)
		}
	}
}

// TestTracelessStepZeroAlloc pins the guarantee down as a test: with
// the sink disabled, stepping through gated cross-ring calls allocates
// nothing.
func TestTracelessStepZeroAlloc(t *testing.T) {
	img := tracelessImage(t)
	c := img.CPU
	if _, err := c.Run(200); err != nil { // warm the SDW cache and stacks
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(100, func() {
		if _, err := c.Run(50); err != nil {
			t.Fatal(err)
		}
	})
	if avg != 0 {
		t.Errorf("traceless step path allocates %v allocs per 50-step run, want 0", avg)
	}
}

// ---- Decision service: the zero-allocation submit path ----

// benchCheckerSegments is the image the decision-service benchmarks
// serve: a writable data segment and a gated code segment.
func benchCheckerSegments() []rings.Segment {
	return []rings.Segment{
		{Name: "data", Size: 64, Read: true, Write: true,
			Brackets: core.Brackets{R1: 2, R2: 4, R3: 4}},
		{Name: "code", Size: 64, Read: true, Execute: true,
			Brackets: core.Brackets{R1: 1, R2: 3, R3: 5}, Gates: 2},
	}
}

// BenchmarkServiceCheckInto measures a complete decision round trip
// through the service (admission, borrowing a processor, MMU
// validation) using the CheckInto path. Like the traceless step above,
// 0 B/op is an acceptance criterion — asserted by
// TestSubmitIntoZeroAlloc in internal/service.
func BenchmarkServiceCheckInto(b *testing.B) {
	chk, err := rings.NewCheckerWith(rings.CheckerConfig{Workers: 1}, benchCheckerSegments())
	if err != nil {
		b.Fatal(err)
	}
	defer chk.Close()

	for _, size := range []int{1, 16} {
		queries := make([]rings.Query, size)
		for i := range queries {
			switch i & 3 {
			case 0, 1:
				queries[i] = rings.Query{Op: rings.OpAccess, Ring: 4, Segment: "data",
					Wordno: uint32(i), Kind: rings.AccessRead}
			case 2:
				queries[i] = rings.Query{Op: rings.OpCall, Ring: 4, Segment: "code", Wordno: 1}
			case 3:
				queries[i] = rings.Query{Op: rings.OpAccess, Ring: 7, Segment: "data",
					Kind: rings.AccessWrite} // denied
			}
		}
		dst := make([]rings.Decision, size)
		b.Run(benchSizeName("batch", size), func(b *testing.B) {
			for i := 0; i < 8; i++ { // warm the descriptor pool
				if err := chk.CheckInto(queries, dst); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := chk.CheckInto(queries, dst); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkServiceCheckIntoParallel runs one caller per P against a
// service with one processor per P, each caller deciding a 64-query
// access/call/return batch. ns/op is wall time per batch, so comparing
// -cpu 1,2 shows whether a second processor adds throughput: it does
// only while no decision writes state that another processor shares.
func BenchmarkServiceCheckIntoParallel(b *testing.B) {
	chk, err := rings.NewCheckerWith(rings.CheckerConfig{Workers: runtime.GOMAXPROCS(0)}, benchCheckerSegments())
	if err != nil {
		b.Fatal(err)
	}
	defer chk.Close()
	upTo := core.Ring(4)
	queries := make([]rings.Query, 64)
	for i := range queries {
		switch i % 3 {
		case 0:
			queries[i] = rings.Query{Op: rings.OpAccess, Ring: 4, Segment: "data",
				Wordno: uint32(i), Kind: rings.AccessRead}
		case 1:
			queries[i] = rings.Query{Op: rings.OpCall, Ring: 4, Segment: "code", Wordno: 1}
		case 2:
			queries[i] = rings.Query{Op: rings.OpReturn, Ring: 3, Segment: "code", EffRing: &upTo}
		}
	}
	b.SetParallelism(1)
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		dst := make([]rings.Decision, len(queries))
		for pb.Next() {
			if err := chk.CheckInto(queries, dst); err != nil {
				b.Error(err)
				return
			}
		}
	})
}

func benchSizeName(prefix string, n int) string {
	return fmt.Sprintf("%s-%d", prefix, n)
}
