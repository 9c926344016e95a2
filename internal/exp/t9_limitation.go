package exp

import (
	"fmt"

	"repro/internal/asm"
	"repro/internal/core"
	"repro/internal/image"
	"repro/internal/word"
)

func init() {
	register("T9", "limitation: no mutually suspicious programs in one process", func(r *Result) error {
		// The conclusion: "The subset access property of rings of
		// protection does not provide for what may be called 'mutually
		// suspicious programs' operating under the control of a single
		// process." Two subsystems, one in ring 2 and one in ring 3,
		// cannot protect themselves from each other symmetrically: the
		// lower-numbered ring always dominates.
		r.addf("subsystem S1 occupies ring 2, subsystem S2 occupies ring 3, same process")
		r.addf("")
		s1data := core.SDWView{
			Present: true, Read: true, Write: true,
			Brackets: core.Brackets{R1: 2, R2: 2, R3: 2}, Bound: 16,
		}
		s2data := core.SDWView{
			Present: true, Read: true, Write: true,
			Brackets: core.Brackets{R1: 3, R2: 3, R3: 3}, Bound: 16,
		}
		row := func(what string, k core.ViolationKind) {
			outcome := "PERMITTED"
			if k != core.ViolationNone {
				outcome = "denied (" + k.String() + ")"
			}
			r.addf("  %-44s %s", what, outcome)
		}
		row("S1 (ring 2) reading S2's private data", core.ReadCheck(s2data, 0, 2))
		row("S1 (ring 2) writing S2's private data", core.WriteCheck(s2data, 0, 2))
		row("S2 (ring 3) reading S1's private data", core.ReadCheck(s1data, 0, 3))
		row("S2 (ring 3) writing S1's private data", core.WriteCheck(s1data, 0, 3))

		// Confirm on the machine: ring-2 code walks straight into the
		// ring-3 subsystem's data.
		prog, err := asm.Assemble(`
        .seg    sone
        .bracket 2,2,2
        lda     *p
        hlt
p:      .its    2, stwo_data$base
`)
		if err != nil {
			return err
		}
		img, err := asm.BuildImage(image.Config{}, prog, image.SegmentDef{
			Name: "stwo_data", Words: wordsOf(555),
			Read: true, Write: true,
			Brackets: core.Brackets{R1: 3, R2: 3, R3: 3},
		})
		if err != nil {
			return err
		}
		if err := img.Start(2, "sone", 0); err != nil {
			return err
		}
		if _, err := img.CPU.Run(100); err != nil {
			return fmt.Errorf("ring-2 read of ring-3 data unexpectedly failed: %w", err)
		}
		if img.CPU.A.Int64() != 555 {
			return fmt.Errorf("machine read wrong value")
		}
		r.addf("")
		r.addf("machine check: ring-2 code read the ring-3 subsystem's datum (555)")
		r.addf("without any gate or audit — by design. \"It is just that subset")
		r.addf("property which imposes an organization which is easy to understand\";")
		r.addf("mutual suspicion requires the general domains the paper cites as an")
		r.addf("open research problem (Dennis & Van Horn, Lampson, Fabry, ...).")
		return nil
	})
}

// wordsOf is a tiny literal helper for experiment setup.
func wordsOf(vals ...int64) []word.Word {
	out := make([]word.Word, len(vals))
	for i, v := range vals {
		out[i] = word.FromInt(v)
	}
	return out
}
