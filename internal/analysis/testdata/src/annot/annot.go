// Package annot exercises the annot analyzer: the //ring: grammar is
// itself checked, so a typo in an annotation fails the build instead
// of silently disabling an invariant.
package annot

import "sync"

//ring:frobnicate the widget // want `unknown ringvet directive "frobnicate"`
func mystery() {}

//ring:hotpath floating above a var, not a function // want `ring:hotpath is not attached to a function declaration`

var strayTarget int

//ring:guarded mu floating free of any struct // want `ring:guarded is not attached to a struct field`

var anchor int

var n int

// The reason on an allow is mandatory.
func setup() {
	/* want `ring:allow requires a reason` */ //ring:allow
	n = 2
}

type registry struct {
	mu sync.Mutex
	n  int //ring:guarded lock // want `ring:guarded names "lock", which is not a field of the same struct`
}

type table struct {
	mu sync.Mutex
	m  int /* want `ring:guarded requires a mutex field name` */ //ring:guarded
}

type misplaced struct {
	mu sync.Mutex
	v  int //ring:hotpath // want `ring:hotpath is not valid on a struct field`
}

/* want `ring:locked requires a mutex field name` */ //ring:locked
func needsName()                                     {}

// ---- negatives: well-formed markers draw no report ----

// valid carries every function marker.
//
//ring:hotpath
func valid() {}

type guardedOK struct {
	mu sync.Mutex
	v  int //ring:guarded mu
}

// lockedOK names its mutex.
//
//ring:locked mu
func lockedOK(g *guardedOK) { g.v = 1 }

// use silences unused warnings for the fixture's props.
func use() {
	mystery()
	needsName()
	valid()
	setup()
	_ = strayTarget
	_ = anchor
	_ = registry{}
	_ = table{}
	_ = misplaced{}
}
