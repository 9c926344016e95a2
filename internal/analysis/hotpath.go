package analysis

import (
	"fmt"
	"go/types"
	"math"
	"path"
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
	h := &hotWalker{facts: pass.Facts, memo: map[*types.Func]*banTrace{}, depth: map[*types.Func]int{}}
	for fd, note := range pass.Notes.Funcs {
		fn, _ := pass.Pkg.Info.Defs[fd.Name].(*types.Func)
		fact := pass.Facts[fn]
		if !note.Hot || fact == nil {
			continue
		}
		for _, b := range fact.Bans {
			pass.Reportf(b.Pos, "hot path: %s", b.What)
		}
		for _, cs := range fact.Calls {
			trace, _ := h.firstBan(cs.Callee)
			if trace == nil {
				continue
			}
			pass.Reportf(cs.Pos,
				"hot path: %s calls %s, which reaches %s at %s (via %s)",
				funcName(fn), qualified(cs.Callee), trace.ban.What,
				lineKey(pass.Pkg.Fset.Position(trace.ban.Pos)), strings.Join(trace.chain, " -> "))
		}
	}
	return nil
}

type banTrace struct {
	ban   Ban
	chain []string // qualified names from the first callee to the offender
}

type hotWalker struct {
	facts   map[*types.Func]*FuncFact
	memo    map[*types.Func]*banTrace // settled: first reachable ban (nil entry = clean)
	depth   map[*types.Func]int       // in progress: depth on the walk
	pending []*types.Func             // clean so far, but only because a caller was in progress
}

// firstBan returns the first banned construct statically reachable
// from fn, or nil if its transitive closure is clean. Functions outside
// the module (where the scan banned the growers at the call) and hot
// functions (verified at their own definitions) count as clean.
//
// A call back into a function still in progress (a cycle) counts as
// clean for now, so a clean answer that leaned on one is not settled:
// the function waits in pending until the shallowest function it
// leaned on finishes clean, and is settled with it. The second result
// is the least depth leaned on (math.MaxInt for a settled answer), as
// in Tarjan's strongly connected components. So whether a ban is
// found does not depend on the order the hot functions are walked in.
func (h *hotWalker) firstBan(fn *types.Func) (*banTrace, int) {
	if t, done := h.memo[fn]; done {
		return t, math.MaxInt
	}
	if d, busy := h.depth[fn]; busy {
		return nil, d
	}
	fact := h.facts[fn]
	if fact == nil || fact.Hot {
		return nil, math.MaxInt
	}
	if len(fact.Bans) > 0 {
		t := &banTrace{ban: fact.Bans[0], chain: []string{qualified(fn)}}
		h.memo[fn] = t
		return t, math.MaxInt
	}
	d, mark, low := len(h.depth), len(h.pending), math.MaxInt
	h.depth[fn] = d
	defer delete(h.depth, fn)
	for _, cs := range fact.Calls {
		sub, l := h.firstBan(cs.Callee)
		if sub != nil {
			t := &banTrace{ban: sub.ban, chain: append([]string{qualified(fn)}, sub.chain...)}
			h.memo[fn] = t
			h.pending = h.pending[:mark]
			return t, math.MaxInt
		}
		low = min(low, l)
	}
	if low < d {
		h.pending = append(h.pending, fn)
		return nil, low
	}
	for _, g := range h.pending[mark:] {
		h.memo[g] = nil
	}
	h.pending = h.pending[:mark]
	h.memo[fn] = nil
	return nil, math.MaxInt
}

// funcName names fn within its package: "Name" for a package function,
// "(Recv).Name" or "(*Recv).Name" for a method.
func funcName(fn *types.Func) string {
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return fn.Name()
	}
	t, ptr := recv.Type(), ""
	if p, ok := t.(*types.Pointer); ok {
		t, ptr = p.Elem(), "*"
	}
	name := "?"
	if n, ok := t.(*types.Named); ok {
		name = n.Obj().Name()
	}
	return fmt.Sprintf("(%s%s).%s", ptr, name, fn.Name())
}

// qualified prefixes funcName with the last element of fn's package
// path: "service.(*Store).SubmitInto".
func qualified(fn *types.Func) string {
	return path.Base(fn.Pkg().Path()) + "." + funcName(fn)
}
