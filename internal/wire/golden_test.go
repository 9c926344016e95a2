package wire

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/service"
)

// Golden binary fixtures pin the frame layout byte for byte: header
// packing, word order, field widths, string padding. A codec change
// that drifts the wire format fails here before any peer does.
// Regenerate deliberately with:
//
//	go test ./internal/wire -run TestWireGolden -update
var update = flag.Bool("update", false, "rewrite golden wire fixtures")

// goldenFrames enumerates one representative frame per type, in a
// fixed order so the fixture set is stable.
func goldenFrames() []struct {
	Name  string
	Frame Frame
} {
	return []struct {
		Name  string
		Frame Frame
	}{
		{"hello", Frame{Type: FrameHello,
			Hello: Hello{MinVersion: 1, MaxVersion: 1, Tenant: "acme"}}},
		{"welcome", Frame{Type: FrameWelcome, Welcome: Welcome{Version: 1,
			Health: Health{Segments: 3, Shards: 8, Workers: 1, StoreVersion: 0}}}},
		{"check", Frame{Type: FrameCheck, Corr: 7, Queries: goldenQueries()}},
		{"decisions", Frame{Type: FrameDecisions, Corr: 7, Decisions: []service.Decision{
			{Allowed: true, Shard: 0},
			{Violation: core.ViolationKind(4).String(), ViolationKind: 4, Shard: 0},
			{Allowed: true, Outcome: core.CallDownward.String(), NewRing: 3, Shard: 1},
			{Allowed: true, Outcome: core.ReturnUpward.String(), NewRing: 3, Shard: 1},
			{Allowed: true, NewRing: 3, Shard: -1},
			{Err: "invalid access kind 3", Shard: -1},
		}}},
		{"mutate_setbrackets", Frame{Type: FrameMutate, Corr: 9, Mutation: Mutation{
			Op: MutSetBrackets, Segment: "data", Read: true, Write: true,
			Brackets: core.Brackets{R1: 1, R2: 1, R3: 1}}}},
		{"mutate_revoke", Frame{Type: FrameMutate, Corr: 10,
			Mutation: Mutation{Op: MutRevoke, Segment: "nonesuch"}}},
		{"mutated", Frame{Type: FrameMutated, Corr: 9, StoreVersion: 2}},
		{"ping", Frame{Type: FramePing, Corr: 11}},
		{"pong", Frame{Type: FramePong, Corr: 11,
			Health: Health{Segments: 3, Shards: 8, Workers: 1, StoreVersion: 2}}},
		{"error", Frame{Type: FrameError, Corr: 12,
			Err: ErrFrame{Code: CodeShed, Msg: "service: decision queue full"}}},
		{"goaway", Frame{Type: FrameGoAway}},
		{"subscribe", Frame{Type: FrameSubscribe, Corr: 13}},
		{"shootdown", Frame{Type: FrameShootdown,
			Shootdown: Shootdown{Shard: 2, Segno: 10, Epoch: 4}}},
		{"lease_expire", Frame{Type: FrameLeaseExpire,
			Expire: LeaseExpire{Code: CodeConflict}}},
		{"fetch", Frame{Type: FrameFetch, Corr: 14,
			Fetch: Fetch{Shards: 0b101, Names: true}}},
		{"tables", Frame{Type: FrameTables, Corr: 14, Tables: goldenTables()}},
	}
}

// goldenTables answers the golden fetch against testSegments in an
// 8-shard store: shard 0 ("data") after two edits, shard 2 ("secret")
// revoked — an absent descriptor keeps its other fields — and the
// names.
func goldenTables() Tables {
	var ts Tables
	ts.Tables[0] = service.NewTable(4, []core.SDWView{{Present: true, Bound: 16, Read: true, Write: true,
		Brackets: core.Brackets{R1: 2, R2: 4, R3: 4}}})
	ts.Tables[2] = service.NewTable(2, []core.SDWView{{Bound: 8, Read: true,
		Brackets: core.Brackets{R1: 0, R2: 1, R3: 1}}})
	ts.Names = []string{"data", "code", "secret"}
	return ts
}

// TestWireGolden pins each frame encoding against its .bin fixture
// and asserts the fixture decodes back to the source frame.
func TestWireGolden(t *testing.T) {
	for _, g := range goldenFrames() {
		t.Run(g.Name, func(t *testing.T) {
			got, err := EncodeFrame(nil, g.Frame)
			if err != nil {
				t.Fatalf("encode: %v", err)
			}
			path := filepath.Join("testdata", g.Name+".bin")
			if *update {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatalf("mkdir: %v", err)
				}
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatalf("write fixture: %v", err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing fixture (run with -update to create): %v", err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("wire format drifted from %s\n got %x\nwant %x", path, got, want)
			}
			dec, n, err := DecodeFrame(want)
			if err != nil {
				t.Fatalf("fixture does not decode: %v", err)
			}
			if n != len(want) {
				t.Errorf("fixture decode consumed %d of %d bytes", n, len(want))
			}
			if !reflect.DeepEqual(dec, g.Frame) {
				t.Errorf("fixture decodes to\n %+v\nwant\n %+v", dec, g.Frame)
			}
		})
	}
}
