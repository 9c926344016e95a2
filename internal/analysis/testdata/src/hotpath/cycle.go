package hotpath

// cycleA and cycleB call each other, and only cycleA reaches an
// allocation. Both hot callers are flagged, whichever is walked first:
// a walk that enters at cycleA sees cycleB clean only while cycleA is
// still in progress, which must not settle cycleB as clean.

//ring:hotpath
func cycleH1() {
	cycleA(1) // want `hot path: cycleH1 calls hotpath\.cycleA, which reaches make \(allocates\) at .*cycle\.go:\d+ \(via hotpath\.cycleA -> hotpath\.cycleC\)`
}

//ring:hotpath
func cycleH2() {
	cycleB(1) // want `hot path: cycleH2 calls hotpath\.cycleB, which reaches make \(allocates\) at .*cycle\.go:\d+ \(via hotpath\.cycleB -> hotpath\.cycleA -> hotpath\.cycleC\)`
}

func cycleA(n int) {
	if n > 0 {
		cycleB(n - 1)
	}
	cycleC(n)
}

func cycleB(n int) { cycleA(n) }

func cycleC(n int) { sink = len(make([]int, n)) }
