package acl

import (
	"testing"

	"repro/internal/core"
)

func entry(user string, r1, r2, r3 core.Ring) Entry {
	return Entry{User: user, Read: true, Brackets: core.Brackets{R1: r1, R2: r2, R3: r3}}
}

func TestResolveFirstMatch(t *testing.T) {
	l := List{
		entry("alice", 1, 1, 1),
		entry("*", 4, 5, 5),
	}
	e, ok := l.Resolve("alice")
	if !ok || e.Brackets.R1 != 1 {
		t.Errorf("alice: %+v ok=%v", e, ok)
	}
	e, ok = l.Resolve("bob")
	if !ok || e.Brackets.R1 != 4 {
		t.Errorf("bob: %+v ok=%v", e, ok)
	}
}

func TestResolveNoMatch(t *testing.T) {
	l := List{entry("alice", 1, 1, 1)}
	if _, ok := l.Resolve("mallory"); ok {
		t.Error("mallory matched")
	}
	if _, ok := (List{}).Resolve("anyone"); ok {
		t.Error("empty list matched")
	}
}

func TestValidate(t *testing.T) {
	good := List{entry("a", 0, 2, 4), entry("*", 4, 4, 4)}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := List{Entry{User: "a", Brackets: core.Brackets{R1: 5, R2: 2, R3: 7}}}
	if bad.Validate() == nil {
		t.Error("inverted brackets accepted")
	}
	bad = List{Entry{User: "", Brackets: core.Brackets{}}}
	if bad.Validate() == nil {
		t.Error("empty user accepted")
	}
}

func TestCheckSetterSoleOccupant(t *testing.T) {
	// Ring-4 caller cannot grant ring-3 access.
	if err := CheckSetter(4, core.Brackets{R1: 3, R2: 4, R3: 4}); err == nil {
		t.Error("R1 below caller accepted")
	}
	if err := CheckSetter(4, core.Brackets{R1: 4, R2: 4, R3: 4}); err != nil {
		t.Errorf("own-ring grant rejected: %v", err)
	}
	if err := CheckSetter(4, core.Brackets{R1: 5, R2: 6, R3: 7}); err != nil {
		t.Errorf("higher-ring grant rejected: %v", err)
	}
	// Ring 0 may grant anything well-formed.
	if err := CheckSetter(0, core.Brackets{R1: 0, R2: 0, R3: 0}); err != nil {
		t.Errorf("ring-0 grant rejected: %v", err)
	}
	// But not malformed brackets.
	if err := CheckSetter(0, core.Brackets{R1: 6, R2: 2, R3: 7}); err == nil {
		t.Error("malformed grant accepted")
	}
}

func TestMatchesWildcard(t *testing.T) {
	e := entry("*", 4, 4, 4)
	if !e.Matches("anyone") || !e.Matches("") {
		t.Error("wildcard did not match")
	}
	e = entry("carol", 4, 4, 4)
	if e.Matches("carols") || !e.Matches("carol") {
		t.Error("exact match wrong")
	}
}
