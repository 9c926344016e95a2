package exp

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/figures"
)

// exampleSegments are the SDW views used by the truth-table
// experiments: the paper's two figures plus the other archetypes the
// "Use of Rings" section names.
func exampleSegments() []struct {
	name string
	view core.SDWView
} {
	return []struct {
		name string
		view core.SDWView
	}{
		{"fig1 data (w<=4, r<=5)", figures.Figure1View()},
		{"fig2 gated proc [3,3] ext 5", figures.Figure2View()},
		{"supervisor data (r/w<=0)", core.SDWView{
			Present: true, Read: true, Write: true,
			Brackets: core.Brackets{R1: 0, R2: 0, R3: 0}, Bound: 64,
		}},
		{"ring-0 gate seg [0,0] ext 5", core.SDWView{
			Present: true, Read: true, Execute: true,
			Brackets: core.Brackets{R1: 0, R2: 0, R3: 5}, GateCount: 3, Bound: 64,
		}},
		{"user proc [4,4]", core.SDWView{
			Present: true, Read: true, Execute: true,
			Brackets: core.Brackets{R1: 4, R2: 4, R3: 4}, Bound: 64,
		}},
		{"shared library [0,7]", core.SDWView{
			Present: true, Read: true, Execute: true,
			Brackets: core.Brackets{R1: 0, R2: 7, R3: 7}, Bound: 64,
		}},
	}
}

func markFor(k core.ViolationKind) string {
	switch k {
	case core.ViolationNone:
		return "ok"
	case core.ViolationBound:
		return "bound"
	case core.ViolationNoRead, core.ViolationNoWrite, core.ViolationNoExecute:
		return "flag"
	case core.ViolationReadBracket, core.ViolationWriteBracket, core.ViolationExecuteBracket:
		return "brkt"
	case core.ViolationNotAGate:
		return "gate"
	case core.ViolationGateExtension:
		return "ext"
	case core.ViolationRingAlarm:
		return "alarm"
	default:
		return "viol"
	}
}

func init() {
	register("F1", "Figure 1: access indicators, writable data segment", func(r *Result) error {
		r.add(figures.Figure1())
		// Verify the diagram against the validation predicates.
		v := figures.Figure1View()
		for ring := core.Ring(0); ring < core.NumRings; ring++ {
			w := core.WriteCheck(v, 0, ring) == core.ViolationNone
			rd := core.ReadCheck(v, 0, ring) == core.ViolationNone
			if w != (ring <= 4) || rd != (ring <= 5) {
				return fmt.Errorf("figure 1 semantics wrong at ring %d", ring)
			}
		}
		r.addf("verified: write permitted exactly in rings 0-4, read in 0-5, execute never")
		return nil
	})

	register("F2", "Figure 2: access indicators, gated pure procedure", func(r *Result) error {
		r.add(figures.Figure2())
		v := figures.Figure2View()
		for ring := core.Ring(0); ring < core.NumRings; ring++ {
			x := core.FetchCheck(v, 0, ring) == core.ViolationNone
			if x != (ring == 3) {
				return fmt.Errorf("figure 2 execute semantics wrong at ring %d", ring)
			}
			d, k := core.CallCheck(v, 0, ring, ring, false)
			gateOK := k == core.ViolationNone && d.Outcome == core.CallDownward
			if gateOK != (ring == 4 || ring == 5) {
				return fmt.Errorf("figure 2 gate semantics wrong at ring %d", ring)
			}
		}
		r.addf("verified: execute exactly in ring 3, downward gate calls exactly from rings 4-5")
		return nil
	})

	register("F3", "Figure 3: storage formats and registers", func(r *Result) error {
		r.add(figures.Figure3())
		return nil
	})

	register("F4", "Figure 4: instruction fetch validation", func(r *Result) error {
		r.addf("fetch validation by ring of execution (ok / flag off / outside bracket):")
		r.addf("%-30s %s", "segment", "ring 0    1    2    3    4    5    6    7")
		for _, s := range exampleSegments() {
			row := fmt.Sprintf("%-30s     ", s.name)
			for ring := core.Ring(0); ring < core.NumRings; ring++ {
				row += fmt.Sprintf("%-5s", markFor(core.FetchCheck(s.view, 0, ring)))
			}
			r.add(row)
		}
		return nil
	})

	register("F5", "Figure 5: effective address and effective ring formation", func(r *Result) error {
		r.addf("TPR.RING after each step (monotone max rule):")
		r.addf("%-10s %-10s %-10s %-12s %-10s", "IPR.RING", "PRn.RING", "IND.RING", "container R1", "effective")
		cases := []struct{ ipr, pr, ind, r1 core.Ring }{
			{4, 0, 0, 0},
			{4, 5, 0, 0},
			{1, 4, 0, 0},
			{1, 1, 5, 0},
			{1, 1, 0, 5},
			{0, 3, 5, 7},
			{7, 0, 0, 0},
		}
		for _, c := range cases {
			afterPR := core.EffectiveRingPR(c.ipr, c.pr)
			eff := core.EffectiveRingIndirect(afterPR, c.ind, c.r1)
			r.addf("%-10d %-10d %-10d %-12d %-10d", c.ipr, c.pr, c.ind, c.r1, eff)
		}
		r.add("", "the effective ring records the highest numbered ring that could have",
			"influenced the address; it never decreases during the calculation")
		return nil
	})

	register("F6", "Figure 6: operand read/write validation", func(r *Result) error {
		for _, kind := range []core.AccessKind{core.AccessRead, core.AccessWrite} {
			r.addf("%s validation by effective ring:", kind)
			r.addf("%-30s %s", "segment", "ring 0    1    2    3    4    5    6    7")
			for _, s := range exampleSegments() {
				row := fmt.Sprintf("%-30s     ", s.name)
				for ring := core.Ring(0); ring < core.NumRings; ring++ {
					var k core.ViolationKind
					if kind == core.AccessRead {
						k = core.ReadCheck(s.view, 0, ring)
					} else {
						k = core.WriteCheck(s.view, 0, ring)
					}
					row += fmt.Sprintf("%-5s", markFor(k))
				}
				r.add(row)
			}
			r.add("")
		}
		return nil
	})

	register("F7", "Figure 7: transfer and EAP validation", func(r *Result) error {
		r.addf("transfer advance check (effective ring = ring of execution):")
		r.addf("%-30s %s", "segment", "ring 0    1    2    3    4    5    6    7")
		for _, s := range exampleSegments() {
			row := fmt.Sprintf("%-30s     ", s.name)
			for ring := core.Ring(0); ring < core.NumRings; ring++ {
				row += fmt.Sprintf("%-5s", markFor(core.TransferCheck(s.view, 0, ring, ring)))
			}
			r.add(row)
		}
		r.add("")
		r.addf("ring alarm: a transfer whose effective ring exceeds the ring of execution")
		v := exampleSegments()[5].view // shared library, executable everywhere
		k := core.TransferCheck(v, 0, 3, 5)
		r.addf("  transfer in ring 3 with effective ring 5 into [0,7] library: %s", markFor(k))
		if k != core.ViolationRingAlarm {
			return fmt.Errorf("ring alarm not raised")
		}
		r.add("EAP-type instructions form the address but reference nothing: never validated")
		return nil
	})

	register("F8", "Figure 8: the CALL instruction", func(r *Result) error {
		v := figures.Figure2View()
		r.addf("CALL at gate word 0 of the Figure-2 segment (execute [3,3], gates 2, ext 5):")
		r.addf("%-12s %-28s %s", "caller ring", "outcome", "new ring")
		for ring := core.Ring(0); ring < core.NumRings; ring++ {
			d, k := core.CallCheck(v, 0, ring, ring, false)
			if k != core.ViolationNone {
				r.addf("%-12d %-28s %s", ring, "violation: "+k.String(), "-")
				continue
			}
			r.addf("%-12d %-28s %d", ring, d.Outcome.String(), d.NewRing)
		}
		r.add("")
		_, k := core.CallCheck(v, 2, 4, 4, false)
		r.addf("CALL at non-gate word 2 from ring 4: %s", markFor(k))
		d, _ := core.CallCheck(v, 100, 3, 3, true)
		r.addf("CALL within the same segment bypasses the gate list: outcome %v", d.Outcome)

		// Measured: downward call/return round trip, no traps.
		p := CallKernelParams{CallerRing: 4, ServiceRing: 1, Iterations: 100}
		cycles, steps, err := p.RunHardware(nil)
		if err != nil {
			return err
		}
		r.addf("")
		r.addf("measured: 100 downward call/return round trips (ring 4 -> 1 -> 4):")
		r.addf("  %d instructions, %d cycles, %.1f cycles/round-trip, 0 traps",
			steps, cycles, float64(cycles)/100)

		// Depth sweep: chains of nested downward calls, the layered-
		// supervisor shape, all still trap-free.
		r.addf("")
		r.addf("nested downward call chains (full frame protocol at each layer):")
		r.addf("  %-28s %14s", "chain", "cycles/trip")
		for _, tc := range []struct {
			name   string
			caller core.Ring
			chain  []core.Ring
		}{
			{"ring 5 -> 1", 5, []core.Ring{1}},
			{"ring 5 -> 3 -> 1", 5, []core.Ring{3, 1}},
			{"ring 6 -> 4 -> 2 -> 0", 6, []core.Ring{4, 2, 0}},
		} {
			ccycles, _, err := RunChain(tc.caller, tc.chain, 50)
			if err != nil {
				return err
			}
			r.addf("  %-28s %14.1f", tc.name, float64(ccycles)/50)
		}
		return nil
	})

	register("F9", "Figure 9: the RETURN instruction", func(r *Result) error {
		target := core.SDWView{
			Present: true, Read: true, Execute: true,
			Brackets: core.Brackets{R1: 4, R2: 5, R3: 5}, Bound: 64,
		}
		r.addf("RETURN into a segment executable in rings 4-5:")
		r.addf("%-14s %-14s %s", "current ring", "effective ring", "outcome")
		for _, c := range []struct{ ipr, eff core.Ring }{
			{1, 4}, {1, 5}, {4, 4}, {5, 4}, {1, 6}, {1, 2},
		} {
			d, k := core.ReturnCheck(target, 0, c.ipr, c.eff)
			out := d.Outcome.String()
			if k != core.ViolationNone {
				out = "violation: " + k.String()
			}
			r.addf("%-14d %-14d %s", c.ipr, c.eff, out)
		}
		r.add("",
			"on an upward return every PRn.RING is raised to at least the new ring;",
			"with PRs loadable only by EAP this keeps PRn.RING >= IPR.RING always,",
			"so no return can be directed below the ring of the caller")
		rings := []core.Ring{0, 1, 4, 7}
		core.RaisePRRings(rings, 4)
		r.addf("example: PR rings {0,1,4,7} after return to ring 4 -> %v", rings)
		return nil
	})
}
