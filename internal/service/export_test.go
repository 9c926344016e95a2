package service

import "repro/internal/core"

// The oracle suites (oracle_test.go) and the HTTP suites (http_test.go)
// live in the external test package because they check this package
// through internal/spec and internal/tenant, which import it. This file
// lends them the shared fixtures and the edit and worker holds.

// Editor is what an oracle script edits: a *Store, or the spec model
// the script is replayed on.
type Editor interface {
	SetBrackets(segno uint32, read, write, execute bool, b core.Brackets, gates uint32) error
	Revoke(segno uint32) error
	Restore(segno uint32) error
}

var (
	TestSegments = testSegments
	ShardProbes  = shardProbes
	ShardScript  = shardScript
	WaitFor      = waitFor
)

// HoldEdits parks every later edit of st inside its odd epoch window,
// shard mutex held, until release is closed.
func HoldEdits(st *Store, release chan struct{}) { st.hold = release }

// HoldWorkers parks every caller of s after it borrows a processor and
// before it decides, until hold is closed, sending on ack (when
// non-nil) as it parks.
func HoldWorkers(s *Service, hold, ack chan struct{}) { s.hold, s.holdAck = hold, ack }
