package service

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
)

// TestWireQueryRoundTrip pins the JSON field names of the /v1/check
// query form and its conversions both ways.
func TestWireQueryRoundTrip(t *testing.T) {
	eff := core.Ring(3)
	queries := []Query{
		{Op: OpCall, Ring: 4, Segment: "code", Wordno: 1, EffRing: &eff, SameSegment: true},
		{Op: OpAccess, Ring: 2, Segno: 7, Wordno: 9, Kind: core.AccessWrite},
		{Op: OpAccess, Ring: 5, Segment: "data", Kind: core.AccessExecute},
		{Op: OpEffRing, Ring: 1, Chain: []ChainStep{{PR: true, Ring: 2}, {Ring: 3, Segno: 1}}},
	}
	buf, err := json.Marshal(NewCheckRequest(queries))
	if err != nil {
		t.Fatal(err)
	}
	for _, field := range []string{`"queries"`, `"op"`, `"ring"`, `"segment"`, `"segno"`, `"wordno"`,
		`"kind"`, `"eff_ring"`, `"same_segment"`, `"chain"`} {
		if !bytes.Contains(buf, []byte(field)) {
			t.Errorf("request JSON %s missing field %s", buf, field)
		}
	}
	var back CheckRequest
	if err := json.Unmarshal(buf, &back); err != nil {
		t.Fatal(err)
	}
	got, err := back.Decode()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, queries) {
		t.Errorf("round trip lost fields:\n got %+v\nwant %+v", got, queries)
	}

	// An access kind outside read/write/execute must never travel as
	// one the server accepts; the empty name would read as "read".
	for _, kind := range []core.AccessKind{3, 7} {
		req := NewCheckRequest([]Query{{Op: OpAccess, Ring: 4, Segment: "data", Kind: kind}})
		if _, err := req.Decode(); err == nil || !strings.Contains(err.Error(), "unknown access kind") {
			t.Errorf("kind %d encoded as %q, decoded with error %v", kind, req.Queries[0].Kind, err)
		}
	}
}
