package wire

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/seg"
	"repro/internal/service"
	"repro/internal/tenant"
)

// roundTrip encodes f, decodes the bytes, re-encodes, and asserts
// byte and struct stability.
func roundTrip(t *testing.T, f Frame) []byte {
	t.Helper()
	b, err := EncodeFrame(nil, f)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	got, n, err := DecodeFrame(b)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if n != len(b) {
		t.Fatalf("decode consumed %d of %d bytes", n, len(b))
	}
	re, err := EncodeFrame(nil, got)
	if err != nil {
		t.Fatalf("re-encode: %v", err)
	}
	if !bytes.Equal(re, b) {
		t.Fatalf("re-encode drifted:\n got %x\nwant %x", re, b)
	}
	return b
}

func TestFrameRoundTrips(t *testing.T) {
	frames := map[string]Frame{
		"hello":         {Type: FrameHello, Hello: Hello{MinVersion: 1, MaxVersion: 3, Tenant: "acme"}},
		"hello_default": {Type: FrameHello, Hello: Hello{MinVersion: Version, MaxVersion: Version}},
		"welcome": {Type: FrameWelcome, Welcome: Welcome{Version: 1,
			Health: Health{Segments: 6, Shards: 8, Workers: 2, StoreVersion: 42}}},
		"check": {Type: FrameCheck, Corr: 7, Queries: goldenQueries()},
		"check_limits": {Type: FrameCheck, Corr: 1 << 63, Queries: []service.Query{
			{Op: service.OpAccess, Ring: 7, Segno: seg.MaxSegno, Wordno: 1<<seg.WordnoBits - 1,
				Kind: core.AccessExecute, SameSegment: true},
			{Op: service.OpEffRing, Ring: 0, Chain: []service.ChainStep{
				{PR: true, Ring: 7}, {Segno: seg.MaxSegno, Ring: 1}, {PR: true}}},
		}},
		"decisions": {Type: FrameDecisions, Corr: 7, Decisions: []service.Decision{
			{Allowed: true, Outcome: core.CallDownward.String(), NewRing: 3, Shard: 1},
			{Violation: core.ViolationKind(4).String(), ViolationKind: 4,
				VersionLo: 2, VersionHi: 2, Shard: 0, Worker: 3},
			{Trapped: true, Allowed: true, Outcome: core.ReturnDownwardTrap.String(),
				Shard: -1, Worker: 1<<15 - 1, VersionLo: 1 << 60, VersionHi: 1 << 60},
			{Err: "invalid access kind 3", Shard: -1},
		}},
		"mutate_setbrackets": {Type: FrameMutate, Corr: 9, Mutation: Mutation{
			Op: MutSetBrackets, Segment: "data", Read: true, Write: true,
			Brackets: core.Brackets{R1: 1, R2: 1, R3: 1}}},
		"mutate_revoke":  {Type: FrameMutate, Corr: 10, Mutation: Mutation{Op: MutRevoke, Segno: 5}},
		"mutate_restore": {Type: FrameMutate, Corr: 11, Mutation: Mutation{Op: MutRestore, Segment: "secret"}},
		"mutated":        {Type: FrameMutated, Corr: 9, StoreVersion: 2},
		"ping":           {Type: FramePing, Corr: 12},
		"pong": {Type: FramePong, Corr: 12,
			Health: Health{Segments: 3, Shards: 8, Workers: 1, StoreVersion: 4}},
		"error":  {Type: FrameError, Corr: 13, Err: ErrFrame{Code: CodeShed, Msg: "service: decision queue full"}},
		"goaway": {Type: FrameGoAway},
		"fetch":  {Type: FrameFetch, Corr: 14, Fetch: Fetch{Shards: 1 << 63}},
		"tables": {Type: FrameTables, Corr: 14, Tables: goldenTables()},
		"tables_empty_shard": {Type: FrameTables, Corr: 15, Tables: Tables{
			Tables: [service.MaxShards]*service.Table{63: service.NewTable(1<<40, nil)}}},
	}
	for name, f := range frames {
		t.Run(name, func(t *testing.T) {
			b := roundTrip(t, f)
			got, _, _ := DecodeFrame(b)
			// Structural equality, not just byte stability. The check
			// frame's chain/effring storage differs (slab-backed), so
			// compare through reflect.DeepEqual which follows pointers.
			if !reflect.DeepEqual(got, f) {
				t.Errorf("decode drifted:\n got %+v\nwant %+v", got, f)
			}
		})
	}
}

func TestDecisionViolationDerivedFromKind(t *testing.T) {
	// The violation string is not carried on the wire: decode rebuilds
	// it from the interned kind names.
	for k := 1; k < core.ViolationKindCount; k++ {
		d := service.Decision{ViolationKind: core.ViolationKind(k),
			Violation: core.ViolationKind(k).String(), Shard: -1}
		b, err := EncodeDecisions(nil, 1, []service.Decision{d})
		if err != nil {
			t.Fatalf("kind %d: %v", k, err)
		}
		var dst [1]service.Decision
		if _, err := DecodeDecisionsInto(b[HeaderLen:], dst[:]); err != nil {
			t.Fatalf("kind %d: decode: %v", k, err)
		}
		if dst[0].Violation != core.ViolationKind(k).String() {
			t.Errorf("kind %d: violation %q, want %q", k, dst[0].Violation, core.ViolationKind(k).String())
		}
	}
}

// TestEncodeRejectsUnencodable lists every input the encoders reject.
// Each row must fail with ErrNotEncodable and no frame, also when
// encoded behind queued answers. A row that exceeds a field width has
// an accepted twin, the same frame with that field at its limit, which
// must round-trip through DecodeFrame. Some rows put the bad element
// after valid ones, so an encoder that writes as it checks has already
// written part of the frame when it rejects.
func TestEncodeRejectsUnencodable(t *testing.T) {
	check := func(qs ...service.Query) Frame { return Frame{Type: FrameCheck, Corr: 1, Queries: qs} }
	access := func(q service.Query) service.Query { q.Op = service.OpAccess; return q }
	// batch is a 64-query check whose last query is last.
	batch := func(last service.Query) Frame {
		qs := make([]service.Query, 64)
		for i := range qs[:63] {
			qs[i] = service.Query{Op: service.OpAccess, Ring: core.Ring(i % 8), Segno: uint32(i)}
		}
		qs[63] = last
		return check(qs...)
	}
	decisions := func(ds ...service.Decision) Frame { return Frame{Type: FrameDecisions, Corr: 1, Decisions: ds} }
	// decided is a valid decision followed by last.
	decided := func(last service.Decision) Frame {
		return decisions(service.Decision{Allowed: true, Shard: 2, VersionLo: 4, VersionHi: 4}, last)
	}
	effring := func(last service.ChainStep) Frame {
		return check(service.Query{Op: service.OpEffRing, Ring: 1, Chain: []service.ChainStep{
			{PR: true, Ring: 2}, {Segno: 7, Ring: 3}, last}})
	}
	mutate := func(m Mutation) Frame { return Frame{Type: FrameMutate, Corr: 1, Mutation: m} }
	setBrackets := func(b core.Brackets, gates uint32) Frame {
		return mutate(Mutation{Op: MutSetBrackets, Segment: "code", Execute: true, Brackets: b, Gates: gates})
	}
	// shards carries a valid shard 0 and a shard 5 holding view.
	shards := func(view core.SDWView) Frame {
		var ts Tables
		ts.Tables[0] = service.NewTable(2, []core.SDWView{{Present: true, Bound: 4, Read: true,
			Brackets: core.Brackets{R1: 1, R2: 2, R3: 3}}})
		ts.Tables[5] = service.NewTable(6, []core.SDWView{{Bound: 1}, view})
		return Frame{Type: FrameTables, Corr: 1, Tables: ts}
	}
	// shards0 carries only shard 0, holding view.
	shards0 := func(view core.SDWView) Frame {
		return Frame{Type: FrameTables, Tables: Tables{Tables: [service.MaxShards]*service.Table{service.NewTable(2, []core.SDWView{view})}}}
	}
	oddSecond := shards(core.SDWView{})
	oddSecond.Tables.Tables[5] = service.NewTable(7, nil)
	names := func(last string) Frame {
		return Frame{Type: FrameTables, Corr: 1, Tables: Tables{Names: []string{"data", "code", last}}}
	}
	long := func(n int) string { return strings.Repeat("x", n) }
	longChain := func(n int) []service.ChainStep { return make([]service.ChainStep, n) }

	// Rows beyond a field width, each with its twin at the limit.
	widths := map[string][2]Frame{
		"ring too wide":    {check(access(service.Query{Ring: 8, Segment: "data"})), check(access(service.Query{Ring: 7, Segment: "data"}))},
		"effring too wide": {check(access(service.Query{Ring: 1, EffRing: ringp(8)})), check(access(service.Query{Ring: 1, EffRing: ringp(7)}))},
		"bad kind":         {check(access(service.Query{Kind: 4})), check(access(service.Query{Kind: 3}))},
		"segno too wide":   {check(access(service.Query{Segno: seg.MaxSegno + 1})), check(access(service.Query{Segno: seg.MaxSegno}))},
		"wordno too wide":  {check(access(service.Query{Wordno: 1 << seg.WordnoBits})), check(access(service.Query{Wordno: 1<<seg.WordnoBits - 1}))},
		"name too long":    {check(access(service.Query{Segment: long(maxQueryName + 1)})), check(access(service.Query{Segment: long(maxQueryName)}))},
		"chain too long": {check(service.Query{Op: service.OpEffRing, Chain: longChain(1 << 16)}),
			check(service.Query{Op: service.OpEffRing, Chain: longChain(1<<16 - 1)})},
		"chain ring too wide": {check(service.Query{Op: service.OpEffRing, Chain: []service.ChainStep{{Ring: 8}}}),
			check(service.Query{Op: service.OpEffRing, Chain: []service.ChainStep{{Ring: 7}}})},
		"last query wordno too wide": {batch(access(service.Query{Wordno: 1 << seg.WordnoBits})),
			batch(access(service.Query{Wordno: 1<<seg.WordnoBits - 1}))},
		"last chain step ring too wide":   {effring(service.ChainStep{Ring: 8}), effring(service.ChainStep{Ring: 7})},
		"last chain step segno too wide":  {effring(service.ChainStep{Segno: seg.MaxSegno + 1}), effring(service.ChainStep{Segno: seg.MaxSegno})},
		"decision worker too wide":        {decisions(service.Decision{Worker: 1 << 15}), decisions(service.Decision{Worker: 1<<15 - 1})},
		"decision shard too wide":         {decisions(service.Decision{Shard: 127}), decisions(service.Decision{Shard: 126})},
		"last decision new ring too wide": {decided(service.Decision{NewRing: 8}), decided(service.Decision{NewRing: 7})},
		"last decision worker too wide":   {decided(service.Decision{Worker: 1 << 15}), decided(service.Decision{Worker: 1<<15 - 1})},
		"last decision shard too wide":    {decided(service.Decision{Shard: 127}), decided(service.Decision{Shard: 126})},
		"last decision shard below -1":    {decided(service.Decision{Shard: -2}), decided(service.Decision{Shard: -1})},
		"last decision violation kind too wide": {
			decided(service.Decision{ViolationKind: core.ViolationKind(core.ViolationKindCount)}),
			decided(service.Decision{ViolationKind: core.ViolationKind(core.ViolationKindCount - 1),
				Violation: core.ViolationKind(core.ViolationKindCount - 1).String()})},
		"last decision negative violation kind": {decided(service.Decision{ViolationKind: -1}), decided(service.Decision{})},
		"last decision err too long":            {decided(service.Decision{Err: long(maxString + 1)}), decided(service.Decision{Err: long(maxString)})},
		"mutation segno too wide": {mutate(Mutation{Op: MutRevoke, Segno: seg.MaxSegno + 1}),
			mutate(Mutation{Op: MutRevoke, Segno: seg.MaxSegno})},
		"mutation name too long": {mutate(Mutation{Op: MutRestore, Segment: long(maxQueryName + 1)}),
			mutate(Mutation{Op: MutRestore, Segment: long(maxQueryName)})},
		"mutation ring too wide": {setBrackets(core.Brackets{R1: 7, R2: 7, R3: 8}, 0), setBrackets(core.Brackets{R1: 7, R2: 7, R3: 7}, 0)},
		"mutation gates too wide": {setBrackets(core.Brackets{R1: 1, R2: 1, R3: 5}, seg.MaxGate+1),
			setBrackets(core.Brackets{R1: 1, R2: 1, R3: 5}, seg.MaxGate)},
		"hello tenant too long": {{Type: FrameHello, Hello: Hello{MinVersion: 1, MaxVersion: 1, Tenant: long(maxQueryName + 1)}},
			{Type: FrameHello, Hello: Hello{MinVersion: 1, MaxVersion: 1, Tenant: long(maxQueryName)}}},
		"error message too long": {{Type: FrameError, Corr: 1, Err: ErrFrame{Code: CodeBadRequest, Msg: long(maxString + 1)}},
			{Type: FrameError, Corr: 1, Err: ErrFrame{Code: CodeBadRequest, Msg: long(maxString)}}},
		"last name too long": {names(long(maxQueryName + 1)), names(long(maxQueryName))},
	}
	// Rows no field limit separates from an accepted frame.
	cases := map[string]Frame{
		"bad op":                             check(service.Query{Op: "sniff"}),
		"negative kind":                      check(access(service.Query{Kind: -1})),
		"name and segno":                     check(access(service.Query{Segment: "data", Segno: 3})),
		"nul in name":                        check(access(service.Query{Segment: "da\x00ta"})),
		"pr step with segno":                 check(service.Query{Op: service.OpEffRing, Chain: []service.ChainStep{{PR: true, Segno: 1}}}),
		"last chain step pr with segno":      effring(service.ChainStep{PR: true, Segno: 1}),
		"last query bad op":                  batch(service.Query{Op: "sniff"}),
		"decision bad outcome":               decisions(service.Decision{Outcome: "sideways call"}),
		"last decision bad outcome":          decided(service.Decision{Outcome: "sideways call"}),
		"last decision nul in err":           decided(service.Decision{Err: "bad\x00"}),
		"mutation bad op":                    mutate(Mutation{Op: 9}),
		"mutation name and segno":            mutate(Mutation{Op: MutRevoke, Segment: "data", Segno: 3}),
		"mutation nul in name":               mutate(Mutation{Op: MutRevoke, Segment: "da\x00ta"}),
		"mutation brackets on revoke":        mutate(Mutation{Op: MutRevoke, Segment: "data", Read: true}),
		"mutation gates on restore":          mutate(Mutation{Op: MutRestore, Segment: "data", Gates: 1}),
		"hello zero min":                     {Type: FrameHello, Hello: Hello{MaxVersion: 1}},
		"hello inverted range":               {Type: FrameHello, Hello: Hello{MinVersion: 2, MaxVersion: 1}},
		"hello nul in tenant":                {Type: FrameHello, Hello: Hello{MinVersion: 1, MaxVersion: 1, Tenant: "a\x00"}},
		"welcome zero version":               {Type: FrameWelcome},
		"error zero code":                    {Type: FrameError, Err: ErrFrame{Msg: "x"}},
		"error nul in message":               {Type: FrameError, Corr: 1, Err: ErrFrame{Code: CodeBadRequest, Msg: "x\x00"}},
		"shootdown odd epoch":                {Type: FrameShootdown, Shootdown: Shootdown{Epoch: 3}},
		"lease expire zero code":             {Type: FrameLeaseExpire},
		"tables odd epoch":                   {Type: FrameTables, Tables: Tables{Tables: [service.MaxShards]*service.Table{service.NewTable(3, nil)}}},
		"tables brackets out of order":       shards0(core.SDWView{Present: true, Bound: 1, Brackets: core.Brackets{R1: 3, R2: 1, R3: 1}}),
		"tables gates past bound":            shards0(core.SDWView{Present: true, Bound: 1, GateCount: 2}),
		"second shard brackets out of order": shards(core.SDWView{Present: true, Bound: 1, Brackets: core.Brackets{R1: 3, R2: 1, R3: 1}}),
		"second shard odd epoch":             oddSecond,
		"tables nul in name":                 {Type: FrameTables, Tables: Tables{Names: []string{"da\x00ta"}}},
		"last name nul":                      names("co\x00de"),
	}
	// A session encodes each answer into the spare capacity of the
	// answers it has queued, so a rejected frame must leave those as
	// they were.
	queue, err := EncodeDecisions(make([]byte, 0, 1<<16), 1, []service.Decision{{Allowed: true, Shard: 1}})
	if err != nil {
		t.Fatal(err)
	}
	queued := bytes.Clone(queue)
	rejects := func(t *testing.T, f Frame) {
		t.Helper()
		for _, buf := range [][]byte{nil, queue[len(queue):]} {
			if b, err := EncodeFrame(buf, f); !errors.Is(err, ErrNotEncodable) || b != nil {
				t.Errorf("encode = %d bytes, %v; want no frame and ErrNotEncodable", len(b), err)
			}
		}
		if !bytes.Equal(queue, queued) {
			t.Errorf("rejected encode changed the queued answers:\n got %x\nwant %x", queue, queued)
		}
	}
	for name, pair := range widths {
		t.Run(name, func(t *testing.T) {
			rejects(t, pair[0])
			b := roundTrip(t, pair[1])
			if got, _, _ := DecodeFrame(b); !reflect.DeepEqual(got, pair[1]) {
				t.Errorf("twin at the limit decodes to\n %+v\nwant\n %+v", got, pair[1])
			}
		})
	}
	for name, f := range cases {
		t.Run(name, func(t *testing.T) { rejects(t, f) })
	}
}

// TestDecodeTablesRejectsAddress checks that a tables frame whose SDW
// carries a nonzero core address is rejected. A table holds descriptor
// views, which have no address, so such a frame could not re-encode to
// its own bytes.
func TestDecodeTablesRejectsAddress(t *testing.T) {
	b, err := EncodeFrame(nil, Frame{Type: FrameTables, Corr: 14, Tables: goldenTables()})
	if err != nil {
		t.Fatal(err)
	}
	// Shard 0's epoch, SDW count and reserved word precede its first
	// SDW's even word, which holds the address field.
	off := HeaderLen + 16 + 16
	for _, addr := range []uint64{1, 1<<seg.AddrBits - 1} {
		mut := bytes.Clone(b)
		even, err := getWord(mut, off)
		if err != nil {
			t.Fatal(err)
		}
		binary.BigEndian.PutUint64(mut[off:], even.Deposit(0, seg.AddrBits, addr).Uint64())
		if _, _, err := DecodeFrame(mut); err == nil {
			t.Errorf("decode accepted an SDW at core address %o", addr)
		}
	}
}

// TestDecodeRejectsTruncation decodes every proper prefix of valid
// frames: none may succeed or panic.
func TestDecodeRejectsTruncation(t *testing.T) {
	for _, f := range []Frame{
		{Type: FrameCheck, Corr: 7, Queries: goldenQueries()},
		{Type: FrameHello, Hello: Hello{MinVersion: 1, MaxVersion: 1, Tenant: "acme"}},
		{Type: FrameError, Corr: 3, Err: ErrFrame{Code: 400, Msg: "nope"}},
		{Type: FrameTables, Corr: 14, Tables: goldenTables()},
	} {
		b, err := EncodeFrame(nil, f)
		if err != nil {
			t.Fatal(err)
		}
		for n := 0; n < len(b); n++ {
			if _, _, err := DecodeFrame(b[:n]); err == nil {
				t.Fatalf("%v: decode of %d/%d byte prefix succeeded", f.Type, n, len(b))
			}
		}
	}
}

// TestDecodeRejectsCorruption flips each byte of a valid check frame
// (and of a decisions frame) one at a time: decoding must either fail
// or stay canonical (re-encode to exactly the mutated bytes).
func TestDecodeRejectsCorruption(t *testing.T) {
	for _, f := range []Frame{
		{Type: FrameCheck, Corr: 7, Queries: goldenQueries()},
		{Type: FrameDecisions, Corr: 7, Decisions: []service.Decision{
			{Allowed: true, Outcome: core.CallDownward.String(), NewRing: 3, Shard: 1}}},
		{Type: FrameMutate, Corr: 9, Mutation: Mutation{
			Op: MutSetBrackets, Segment: "data", Read: true,
			Brackets: core.Brackets{R1: 1, R2: 1, R3: 1}}},
		{Type: FrameFetch, Corr: 14, Fetch: Fetch{Shards: 0b101, Names: true}},
		{Type: FrameTables, Corr: 14, Tables: goldenTables()},
	} {
		orig, err := EncodeFrame(nil, f)
		if err != nil {
			t.Fatal(err)
		}
		for i := range orig {
			for _, flip := range []byte{0x01, 0x80} {
				mut := bytes.Clone(orig)
				mut[i] ^= flip
				got, n, err := DecodeFrame(mut)
				if err != nil {
					continue
				}
				re, err := EncodeFrame(nil, got)
				if err != nil {
					t.Fatalf("%v byte %d ^%02x: decoded but re-encode failed: %v", f.Type, i, flip, err)
				}
				if !bytes.Equal(re, mut[:n]) {
					t.Fatalf("%v byte %d ^%02x: non-canonical decode survived:\n got %x\nwant %x",
						f.Type, i, flip, re, mut[:n])
				}
			}
		}
	}
}

func TestHeaderRejectsReservedBits(t *testing.T) {
	b := EncodePing(nil, 3)
	for _, i := range []int{5, 6, 7} {
		mut := bytes.Clone(b)
		mut[i] = 1
		if _, err := ParseHeader(mut); err == nil {
			t.Errorf("nonzero header byte %d accepted", i)
		}
	}
	mut := bytes.Clone(b)
	mut[4] = byte(FrameTables) + 1
	if _, err := ParseHeader(mut); err == nil {
		t.Error("unknown frame type accepted")
	}
}

func TestEncodeReusesBuffer(t *testing.T) {
	buf := make([]byte, 0, 4096)
	b, err := EncodeCheck(buf, 1, goldenQueries())
	if err != nil {
		t.Fatal(err)
	}
	if &b[0] != &buf[:1][0] {
		t.Error("EncodeCheck did not reuse the provided buffer")
	}
}

// codecMix returns a 64-query segno-form batch in ringload T16's
// 8:1:1:1 access:call:return:effring mix over the test image (segno 3
// is past its end), and the decisions the service gives it: allowed
// and denied accesses, gate calls and returns with their outcomes.
func codecMix(tb testing.TB) ([]service.Query, []service.Decision) {
	tb.Helper()
	queries := make([]service.Query, 64)
	for i := range queries {
		ring := core.Ring(i % 8)
		switch k := i % 11; {
		case k < 8:
			queries[i] = service.Query{Op: service.OpAccess, Ring: ring, Segno: uint32(i % 4),
				Wordno: uint32(i % 20), Kind: core.AccessKind(i % 3)}
		case k == 8:
			queries[i] = service.Query{Op: service.OpCall, Ring: ring, Segno: 1, Wordno: uint32(i % 3)}
		case k == 9:
			queries[i] = service.Query{Op: service.OpReturn, Ring: ring, Segno: 1, EffRing: ringp(core.Ring(i / 8 % 8))}
		default:
			queries[i] = service.Query{Op: service.OpEffRing, Ring: ring,
				Chain: []service.ChainStep{{PR: true, Ring: core.Ring(i / 8 % 8)}, {Segno: 0, Ring: 1}}}
		}
	}
	reg := newTestRegistry(tb, tenant.TenantConfig{Workers: 1})
	tnt, _ := reg.Get(tenant.DefaultTenant)
	decisions := make([]service.Decision, len(queries))
	if err := tnt.SubmitInto(context.Background(), queries, decisions); err != nil {
		tb.Fatal(err)
	}
	var allowed, denied, outcomes int
	for _, d := range decisions {
		switch {
		case d.Outcome != "":
			outcomes++
		case d.Allowed:
			allowed++
		case d.ViolationKind != core.ViolationNone:
			denied++
		}
	}
	if allowed == 0 || denied == 0 || outcomes == 0 {
		tb.Fatalf("mix lacks a decision class: %d allowed, %d denied, %d call/return outcomes",
			allowed, denied, outcomes)
	}
	return queries, decisions
}

// codecRoundTrip runs one batch through the four codec calls of a wire
// check: the client encodes the queries, the server decodes them into
// its batch and encodes the decisions, the client decodes those.
func codecRoundTrip(req, resp *[]byte, batch *Batch, dst []service.Decision,
	queries []service.Query, decisions []service.Decision) error {
	b, err := EncodeCheck(*req, 1, queries)
	if err != nil {
		return err
	}
	*req = b
	if err := DecodeCheckInto(b[HeaderLen:], batch); err != nil {
		return err
	}
	if b, err = EncodeDecisions(*resp, 1, decisions); err != nil {
		return err
	}
	*resp = b
	_, err = DecodeDecisionsInto(b[HeaderLen:], dst)
	return err
}

// TestWireCodecZeroAlloc gates both halves of the codec, client and
// server, at zero heap allocations per segno-form batch once the
// buffers have grown.
func TestWireCodecZeroAlloc(t *testing.T) {
	queries, decisions := codecMix(t)
	var req, resp []byte
	var batch Batch
	dst := make([]service.Decision, len(queries))
	allocs := testing.AllocsPerRun(200, func() {
		if err := codecRoundTrip(&req, &resp, &batch, dst, queries, decisions); err != nil {
			panic(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("codec round trip allocates %.1f times per batch, want 0", allocs)
	}
	if !reflect.DeepEqual(batch.Queries, queries) {
		t.Errorf("queries drifted through the codec:\n got %+v\nwant %+v", batch.Queries, queries)
	}
	if !reflect.DeepEqual(dst, decisions) {
		t.Errorf("decisions drifted through the codec:\n got %+v\nwant %+v", dst, decisions)
	}
}

// BenchmarkWireCodecRoundTrip measures the four codec calls of one
// 64-query wire check in the T16 mix. Compare its ns/op with deciding
// a 64-query batch: BenchmarkServiceCheckIntoParallel at -cpu 1.
func BenchmarkWireCodecRoundTrip(b *testing.B) {
	queries, decisions := codecMix(b)
	var req, resp []byte
	var batch Batch
	dst := make([]service.Decision, len(queries))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := codecRoundTrip(&req, &resp, &batch, dst, queries, decisions); err != nil {
			b.Fatal(err)
		}
	}
}
