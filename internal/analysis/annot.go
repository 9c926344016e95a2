package analysis

// Annot validates the //ring: annotation grammar itself: unknown
// directives, reasonless //ring:allow, markers attached to nothing
// (a //ring:hotpath floating above a blank line, a //ring:guarded
// naming a field that is not a sibling). Every problem ParseNotes
// collects is reported here, so a typo in an annotation fails the
// build instead of silently disabling a check.
var Annot = &Analyzer{
	Name: "annot",
	Doc:  "validates //ring: annotation grammar and attachment",
	Run: func(pass *Pass) error {
		for _, p := range pass.Notes.Problems {
			pass.Reportf(p.Pos, "%s", p.Msg)
		}
		return nil
	},
}

// Analyzers is the full ringvet suite, in reporting order.
var Analyzers = []*Analyzer{Annot, HotPath, MutGuard}
