// Package spec is the executable specification of the decision
// service: what internal/service must answer, stated as a plain
// descriptor table and the internal/core predicates of the paper's
// Figures 4-9, with no MMU, snapshot, concurrency or transport. The
// oracle suites replay their edit script on a Model and require each
// decision the service served to equal the Model's answer at the epoch
// the decision reports.
package spec

import (
	"fmt"
	"math/bits"

	"repro/internal/core"
	"repro/internal/seg"
	"repro/internal/service"
)

// Model is one image's descriptor state, with the store's three
// supervisor edits and the per-shard epochs the service stamps on its
// decisions. A Model is not safe for concurrent use.
type Model struct {
	table  []core.SDWView // indexed by segment number; numbers past it are absent
	names  map[string]uint32
	epochs []uint64 // epochs[i]: shard i's epoch, advanced by 2 per accepted edit
}

// New models the image segs (numbered in order from 0) as served by a
// store with the given shard count, a power of two. The image must be
// one service.NewStore accepts.
func New(shards int, segs []service.Segment) *Model {
	m := &Model{names: make(map[string]uint32, len(segs)), epochs: make([]uint64, shards)}
	for i, s := range segs {
		m.table = append(m.table, core.SDWView{Present: true, Read: s.Read, Write: s.Write,
			Execute: s.Execute, Brackets: s.Brackets, GateCount: s.Gates, Bound: uint32(max(s.Size, 1))})
		m.names[s.Name] = uint32(i)
	}
	return m
}

// shardOf is the service's routing promise: segment segno's descriptor
// lives in shard segno mod Shards.
func (m *Model) shardOf(segno uint32) int { return int(segno) & (len(m.epochs) - 1) }

func (m *Model) view(segno uint32) core.SDWView {
	if segno >= uint32(len(m.table)) {
		return core.SDWView{}
	}
	return m.table[segno]
}

// edit applies f to a copy of segno's entry and, if f accepts it,
// installs the copy and advances the shard's epoch. A rejected edit,
// or one naming a segment outside the image, changes nothing.
func (m *Model) edit(segno uint32, f func(v *core.SDWView) error) error {
	if segno >= uint32(len(m.table)) {
		return fmt.Errorf("spec: segment %d is not in the image", segno)
	}
	v := m.table[segno]
	if err := f(&v); err != nil {
		return err
	}
	m.table[segno] = v
	m.epochs[m.shardOf(segno)] += 2
	return nil
}

// SetBrackets replaces the flags, brackets and gate count of a present
// segment. The gate count must fit the SDW's GATE field and the bound.
func (m *Model) SetBrackets(segno uint32, read, write, execute bool, b core.Brackets, gates uint32) error {
	return m.edit(segno, func(v *core.SDWView) error {
		if !v.Present || gates > seg.MaxGate || gates > v.Bound {
			return fmt.Errorf("spec: segment %d cannot take %d gates, or is absent", segno, gates)
		}
		v.Read, v.Write, v.Execute, v.Brackets, v.GateCount = read, write, execute, b, gates
		return b.Validate()
	})
}

// Revoke clears the present flag of segno.
func (m *Model) Revoke(segno uint32) error {
	return m.edit(segno, func(v *core.SDWView) error { v.Present = false; return nil })
}

// Restore sets the present flag of segno.
func (m *Model) Restore(segno uint32) error {
	return m.edit(segno, func(v *core.SDWView) error { v.Present = true; return nil })
}

var accessChecks = map[core.AccessKind]func(core.SDWView, uint32, core.Ring) core.ViolationKind{
	core.AccessRead: core.ReadCheck, core.AccessWrite: core.WriteCheck, core.AccessExecute: core.FetchCheck,
}

// Decide answers q at the model's current state, stamped as the
// service promises: a query on one segment reports that segment's
// shard and its epoch as the interval [e,e]; an effring chain reports
// the one shard its indirect steps consult, or Shard -1 and the sum of
// the consulted shards' epochs (0 when it consults none); a malformed
// query reports Err, Shard -1 and no interval. Worker is left 0.
func (m *Model) Decide(q service.Query) service.Decision {
	d := service.Decision{Shard: -1}
	segno, effRing := q.Segno, q.Ring
	if q.EffRing != nil {
		effRing = *q.EffRing
	}
	if q.Segment != "" {
		n, ok := m.names[q.Segment]
		if !ok {
			d.Err = fmt.Sprintf("unknown segment %q", q.Segment)
			return d
		}
		segno = n
	}
	v := m.view(segno)
	switch {
	case !q.Ring.Valid():
		d.Err = fmt.Sprintf("invalid ring %d", q.Ring)

	case q.Op == service.OpAccess:
		check, ok := accessChecks[q.Kind]
		if !ok {
			d.Err = fmt.Sprintf("invalid access kind %d", q.Kind)
			return d
		}
		m.stamp(&d, 1<<m.shardOf(segno))
		setKind(&d, check(v, q.Wordno, q.Ring))

	case q.Op == service.OpCall || q.Op == service.OpReturn:
		if !effRing.Valid() {
			d.Err = fmt.Sprintf("invalid effective ring %d", effRing)
			return d
		}
		m.stamp(&d, 1<<m.shardOf(segno))
		if q.Op == service.OpCall {
			dec, k := core.CallCheck(v, q.Wordno, q.Ring, effRing, q.SameSegment)
			if setKind(&d, k) {
				d.Outcome, d.NewRing, d.Trapped = dec.Outcome.String(), dec.NewRing, dec.Outcome == core.CallUpwardTrap
			}
		} else {
			dec, k := core.ReturnCheck(v, q.Wordno, q.Ring, effRing)
			if setKind(&d, k) {
				d.Outcome, d.NewRing, d.Trapped = dec.Outcome.String(), dec.NewRing, dec.Outcome == core.ReturnDownwardTrap
			}
		}

	case q.Op == service.OpEffRing:
		var consulted uint64
		for _, step := range q.Chain {
			if !step.Ring.Valid() {
				d.Err = fmt.Sprintf("invalid ring %d in chain", step.Ring)
				return d
			}
			if !step.PR {
				consulted |= 1 << m.shardOf(step.Segno)
			}
		}
		m.stamp(&d, consulted)
		// Figure 5: pointer registers raise the effective ring; an
		// indirect word is read (and validated) at the current one,
		// then contributes its ring field and its container's R1.
		eff := q.Ring
		for _, step := range q.Chain {
			if step.PR {
				eff = core.EffectiveRingPR(eff, step.Ring)
				continue
			}
			cv := m.view(step.Segno)
			if !setKind(&d, core.ReadCheck(cv, 0, eff)) {
				return d
			}
			eff = core.EffectiveRingIndirect(eff, step.Ring, cv.R1)
		}
		d.Allowed, d.NewRing = true, eff

	default:
		d.Err = fmt.Sprintf("unknown op %q", q.Op)
	}
	return d
}

// stamp reports the shard set consulted (a bit per shard): its one
// shard, or -1 for none or several, and the sum of their epochs as a
// degenerate interval.
func (m *Model) stamp(d *service.Decision, consulted uint64) {
	if bits.OnesCount64(consulted) == 1 {
		d.Shard = bits.TrailingZeros64(consulted)
	}
	for i, e := range m.epochs {
		if consulted&(1<<i) != 0 {
			d.VersionLo += e
		}
	}
	d.VersionHi = d.VersionLo
}

// setKind records violation k on d, or allows d when k is none, and
// reports whether d is allowed.
func setKind(d *service.Decision, k core.ViolationKind) bool {
	d.Allowed = k == core.ViolationNone
	if !d.Allowed {
		d.Violation, d.ViolationKind = k.String(), k
	}
	return d.Allowed
}
