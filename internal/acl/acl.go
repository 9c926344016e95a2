// Package acl implements access control lists: the per-segment lists of
// (user, flags, brackets) entries from which the supervisor derives the
// SDW contents when a segment is added to a process's virtual memory.
//
// The paper: "the users that are permitted to access each segment are
// named by an access control list associated with each segment", and
// "the gate list and the numbers specifying the read, write, and
// execute brackets and gate extension in each SDW all come from the
// access control list entry which permitted the process to include the
// corresponding segment in its virtual memory."
//
// The package also enforces the sole-occupant constraint from the "Use
// of Rings" section: "a program executing in ring n cannot specify R1,
// R2, or R3 values of less than n in an access control list entry of
// any segment."
package acl

import (
	"fmt"

	"repro/internal/core"
)

// Entry grants one user (or everyone) a mode of access to a segment.
type Entry struct {
	// User is the user name this entry matches; "*" matches any user.
	User     string
	Read     bool
	Write    bool
	Execute  bool
	Brackets core.Brackets
}

// Validate checks entry well-formedness.
func (e Entry) Validate() error {
	if e.User == "" {
		return fmt.Errorf("acl: entry with empty user")
	}
	return e.Brackets.Validate()
}

// Matches reports whether the entry applies to the named user.
func (e Entry) Matches(user string) bool { return e.User == "*" || e.User == user }

// List is a segment's access control list. Order matters: the first
// matching entry decides, so specific entries should precede "*".
type List []Entry

// Resolve returns the first entry matching user.
func (l List) Resolve(user string) (Entry, bool) {
	for _, e := range l {
		if e.Matches(user) {
			return e, true
		}
	}
	return Entry{}, false
}

// Validate checks every entry.
func (l List) Validate() error {
	for i, e := range l {
		if err := e.Validate(); err != nil {
			return fmt.Errorf("acl: entry %d: %w", i, err)
		}
	}
	return nil
}

// CheckSetter enforces the sole-occupant constraint: a caller executing
// in callerRing may not grant brackets b below its own ring, and b must
// be well-formed. The supervisor's set-brackets service checks every
// request here.
func CheckSetter(callerRing core.Ring, b core.Brackets) error {
	if b.R1 < callerRing || b.R2 < callerRing || b.R3 < callerRing {
		return fmt.Errorf("acl: %s may not grant brackets %d,%d,%d below itself",
			callerRing, b.R1, b.R2, b.R3)
	}
	return b.Validate()
}
