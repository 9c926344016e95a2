package service

import (
	"fmt"

	"repro/internal/core"
)

// The JSON form of the decision API: the bodies ringd's /v1/check and
// /healthz carry, declared once for the daemon's handler and every
// client that speaks to it.

// CheckQuery is the JSON form of a Query: access kinds travel as their
// names.
type CheckQuery struct {
	Op          string      `json:"op"`
	Ring        uint8       `json:"ring"`
	Segment     string      `json:"segment,omitempty"`
	Segno       uint32      `json:"segno,omitempty"`
	Wordno      uint32      `json:"wordno,omitempty"`
	Kind        string      `json:"kind,omitempty"`
	EffRing     *uint8      `json:"eff_ring,omitempty"`
	SameSegment bool        `json:"same_segment,omitempty"`
	Chain       []ChainStep `json:"chain,omitempty"`
}

// checkQuery returns the JSON form of q. An access kind other than
// read, write and execute travels under its String name
// ("AccessKind(3)"), which query rejects: no kind is ever sent as
// another, least of all as the empty name that means read.
func checkQuery(q Query) CheckQuery {
	cq := CheckQuery{Op: string(q.Op), Ring: uint8(q.Ring), Segment: q.Segment, Segno: q.Segno,
		Wordno: q.Wordno, SameSegment: q.SameSegment, Chain: q.Chain}
	if q.Op == OpAccess {
		cq.Kind = q.Kind.String()
	}
	if q.EffRing != nil {
		r := uint8(*q.EffRing)
		cq.EffRing = &r
	}
	return cq
}

// query converts the JSON form, rejecting unknown access kinds.
func (cq CheckQuery) query() (Query, error) {
	q := Query{
		Op:          Op(cq.Op),
		Ring:        core.Ring(cq.Ring),
		Segment:     cq.Segment,
		Segno:       cq.Segno,
		Wordno:      cq.Wordno,
		SameSegment: cq.SameSegment,
		Chain:       cq.Chain,
	}
	if cq.EffRing != nil {
		r := core.Ring(*cq.EffRing)
		q.EffRing = &r
	}
	switch cq.Kind {
	case "", "read":
		q.Kind = core.AccessRead
	case "write":
		q.Kind = core.AccessWrite
	case "execute", "fetch":
		q.Kind = core.AccessExecute
	default:
		return q, fmt.Errorf("unknown access kind %q", cq.Kind)
	}
	return q, nil
}

// CheckRequest is the body of POST /v1/check.
type CheckRequest struct {
	Queries []CheckQuery `json:"queries"`
}

// NewCheckRequest returns the request body asking queries.
func NewCheckRequest(queries []Query) CheckRequest {
	req := CheckRequest{Queries: make([]CheckQuery, len(queries))}
	for i, q := range queries {
		req.Queries[i] = checkQuery(q)
	}
	return req
}

// Decode converts the request back into queries, naming the first one
// it rejects.
func (req CheckRequest) Decode() ([]Query, error) {
	queries := make([]Query, len(req.Queries))
	for i, cq := range req.Queries {
		q, err := cq.query()
		if err != nil {
			return nil, fmt.Errorf("query %d: %v", i, err)
		}
		queries[i] = q
	}
	return queries, nil
}

// CheckResponse is the body answering a CheckRequest: Decisions[i]
// answers Queries[i].
type CheckResponse struct {
	Decisions []Decision `json:"decisions"`
}

// Health is the body of GET /healthz: liveness and the image's shape.
type Health struct {
	OK       bool   `json:"ok"`
	Workers  int    `json:"workers"`
	Segments int    `json:"segments"`
	Shards   int    `json:"shards"`
	Version  uint64 `json:"version"`
}
