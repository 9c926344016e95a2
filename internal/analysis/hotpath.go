package analysis

import (
	"strings"
)

// HotPath proves the 0 allocs/op invariant over every function marked
// //ring:hotpath: the function itself, and every module-internal
// function it statically calls (transitively), must be free of
// heap-allocating constructs. The ban list mirrors what the runtime
// allocation gates (TestSubmitIntoZeroAlloc and friends) measure, but
// covers the whole static call graph instead of the sampled entry
// points.
//
// Calls out of the module are not followed. The standard library's
// slice growers (the Append functions of encoding/binary, strconv and
// unicode/utf8, slices.Grow and its kin, bytes.Clone) are banned at the
// call instead, like the builtin append.
//
// Limitation, by design: dynamic calls (interface methods, func
// values) are not followed — the mmu.Sink and mem.Store interfaces are
// dispatch points whose hot implementations carry their own
// //ring:hotpath markers, and the runtime gates backstop the dispatch
// itself.
var HotPath = &Analyzer{
	Name: "hotpath",
	Doc:  "flags heap-allocating constructs reachable from //ring:hotpath functions",
	Run:  runHotPath,
}

func runHotPath(pass *Pass) error {
	h := &hotWalker{pass: pass, memo: map[string]*banTrace{}}
	for key, fact := range pass.Local.Funcs {
		if !fact.Hot {
			continue
		}
		for _, b := range fact.Bans {
			pass.ReportLinef(b.Pos, "hot path: %s", b.What)
		}
		seenSite := map[string]bool{}
		for _, cs := range fact.Calls {
			callee := h.lookup(cs.Callee)
			if callee == nil || callee.Hot {
				// Unknown callees are outside the module, where the
				// scan banned the growers at the call; hot callees are
				// verified at their own definitions.
				continue
			}
			trace := h.firstBan(cs.Callee)
			if trace == nil {
				continue
			}
			sk := cs.Pos + "|" + trace.ban.Pos
			if seenSite[sk] {
				continue
			}
			seenSite[sk] = true
			pass.ReportLinef(cs.Pos,
				"hot path: %s calls %s, which reaches %s at %s (via %s)",
				shortKey(key), shortKey(cs.Callee), trace.ban.What, trace.ban.Pos,
				strings.Join(trace.chain, " -> "))
		}
	}
	return nil
}

type banTrace struct {
	ban   Ban
	chain []string // GlobalKeys from the first callee to the offender
}

type hotWalker struct {
	pass *Pass
	memo map[string]*banTrace // global key -> first reachable ban (nil entry = clean)
}

func (h *hotWalker) lookup(globalKey string) *FuncFact {
	dot := strings.LastIndex(globalKey, ".")
	for i := dot; i >= 0; i = strings.LastIndex(globalKey[:i], ".") {
		if pf, ok := h.pass.Facts[globalKey[:i]]; ok {
			if f, ok := pf.Funcs[globalKey[i+1:]]; ok {
				return f
			}
		}
	}
	return nil
}

// firstBan returns the first banned construct statically reachable
// from the function named by globalKey, or nil if its transitive
// closure is clean. Cycles are treated as clean while in progress.
func (h *hotWalker) firstBan(globalKey string) *banTrace {
	if t, done := h.memo[globalKey]; done {
		return t
	}
	h.memo[globalKey] = nil // in progress: break cycles optimistically
	fact := h.lookup(globalKey)
	if fact == nil {
		return nil
	}
	if len(fact.Bans) > 0 {
		t := &banTrace{ban: fact.Bans[0], chain: []string{shortKey(globalKey)}}
		h.memo[globalKey] = t
		return t
	}
	for _, cs := range fact.Calls {
		callee := h.lookup(cs.Callee)
		if callee == nil || callee.Hot {
			continue
		}
		if sub := h.firstBan(cs.Callee); sub != nil {
			t := &banTrace{ban: sub.ban, chain: append([]string{shortKey(globalKey)}, sub.chain...)}
			h.memo[globalKey] = t
			return t
		}
	}
	return nil
}

// shortKey trims the module prefix off a global key for readable
// diagnostics: "repro/internal/service.(*Store).SubmitInto" ->
// "service.(*Store).SubmitInto".
func shortKey(globalKey string) string {
	if i := strings.LastIndex(globalKey, "/"); i >= 0 {
		return globalKey[i+1:]
	}
	return globalKey
}
