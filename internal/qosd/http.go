package qosd

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"time"

	"bufqos/internal/packet"
)

// JoinRequest asks admission for one flow over an explicit route. The
// spec uses the suffixed wire encoding ("2Mbit/s", "60KB") shared with
// the topology loader.
type JoinRequest struct {
	Flow  string          `json:"flow"`
	Links []string        `json:"links"`
	Spec  packet.FlowSpec `json:"spec"`
}

// BatchRequest carries an ordered stream of operations in one round
// trip, at most 8192 of them. Every entry is decided independently and
// in sequence — a rejection or per-entry error does not stop the rest
// — and each join stays atomic across its route.
type BatchRequest struct {
	Ops []BatchOp `json:"ops,omitempty"`
}

// Request limits, refused with 413 before any decision is made. A
// batch op encodes in about 130 bytes (a 1024-op batch of
// `make bench-qosd` is 136 KB), so a batch of maxBatchOps fits well
// inside maxBodyBytes. A restore carries a whole snapshot and has its
// own cap; the largest `make bench-qosd` snapshot is 4.0 MB.
const (
	maxBodyBytes    = 4 << 20 // join, leave, reroute and batch bodies
	maxBatchOps     = 8192
	maxRestoreBytes = 64 << 20
)

// errTooLarge marks a request refused for its size (413).
var errTooLarge = errors.New("request too large")

// BatchOp is one entry of a mixed batch: a join (default), leave, or
// reroute. Leave ignores Links and Spec; reroute ignores Spec.
type BatchOp struct {
	Op    string           `json:"op,omitempty"` // "join" (default), "leave", "reroute"
	Flow  string           `json:"flow"`
	Links []string         `json:"links,omitempty"`
	Spec  *packet.FlowSpec `json:"spec,omitempty"`
}

// BatchResult is one batch entry's outcome: a Decision when the join
// was decided, or Error when the request itself was malformed
// (unknown link, duplicate flow name, invalid spec).
type BatchResult struct {
	Decision
	Error string `json:"error,omitempty"`
}

// BatchResponse carries one result per batch entry, in request order.
type BatchResponse struct {
	Decisions []BatchResult `json:"decisions"`
}

// LeaveRequest releases a flow's reservations.
type LeaveRequest struct {
	Flow string `json:"flow"`
}

// RerouteRequest atomically moves a flow to a new route.
type RerouteRequest struct {
	Flow  string   `json:"flow"`
	Links []string `json:"links"`
}

// RestoreResponse reports a restore: how many flows re-admitted, and
// the decisions for those the topology refused.
type RestoreResponse struct {
	Restored int        `json:"restored"`
	Rejected []Decision `json:"rejected,omitempty"`
}

// Health is the /healthz body.
type Health struct {
	Status   string `json:"status"`
	Topology string `json:"topology"`
	Links    int    `json:"links"`
	Flows    int    `json:"flows"`
}

type apiError struct {
	Error string `json:"error"`
}

// Handler returns the daemon's HTTP API:
//
//	POST /v1/join      admit one flow (atomic across its route)
//	POST /v1/batch     run many joins/leaves/reroutes in one round trip
//	POST /v1/leave     release a flow
//	POST /v1/reroute   move a flow to a new route atomically
//	GET  /v1/links     per-link aggregates behind eqs. (5)-(8)
//	GET  /v1/snapshot  full flow table + link aggregates
//	POST /v1/restore   replace state from a snapshot
//	GET  /healthz      liveness + population summary
//	GET  /metricz      metrics registry snapshot
//
// Decisions are 200 whether admitted or rejected — a rejection is the
// control plane working, not an error. 4xx is reserved for malformed
// requests (400), unknown flows (404), conflicts (409), and bodies or
// batches over the request limits (413).
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/join", s.handleJoin)
	mux.HandleFunc("POST /v1/batch", s.handleBatch)
	mux.HandleFunc("POST /v1/leave", s.handleLeave)
	mux.HandleFunc("POST /v1/reroute", s.handleReroute)
	mux.HandleFunc("GET /v1/links", s.handleLinks)
	mux.HandleFunc("GET /v1/snapshot", s.handleSnapshot)
	mux.HandleFunc("POST /v1/restore", s.handleRestore)
	mux.HandleFunc("GET /healthz", s.handleHealth)
	mux.HandleFunc("GET /metricz", s.handleMetrics)
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		s.met.httpRequests.Inc()
		mux.ServeHTTP(w, r)
	})
}

// decode parses a strict JSON request body (unknown fields rejected)
// of at most limit bytes.
func decode(w http.ResponseWriter, r *http.Request, v any, limit int64) error {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, limit))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			return fmt.Errorf("%w: body exceeds %d bytes", errTooLarge, tooLarge.Limit)
		}
		return fmt.Errorf("bad request body: %w", err)
	}
	return nil
}

// writeJSON emits compact JSON: decisions are the hot path and the
// indentation bytes are pure overhead there.
func (s *Server) writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v) //nolint:errcheck // client gone; nothing to do
}

// writeErr maps service errors to status codes: ConflictError → 409,
// NotFoundError → 404, errTooLarge → 413, anything else → 400.
func (s *Server) writeErr(w http.ResponseWriter, err error) {
	s.met.httpErrors.Inc()
	code := http.StatusBadRequest
	var conflict *ConflictError
	var notFound *NotFoundError
	switch {
	case errors.As(err, &conflict):
		code = http.StatusConflict
	case errors.As(err, &notFound):
		code = http.StatusNotFound
	case errors.Is(err, errTooLarge):
		code = http.StatusRequestEntityTooLarge
	}
	s.writeJSON(w, code, apiError{Error: err.Error()})
}

func (s *Server) handleJoin(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	var req JoinRequest
	if err := decode(w, r, &req, maxBodyBytes); err != nil {
		s.writeErr(w, err)
		return
	}
	d, err := s.Join(req.Flow, req.Links, req.Spec)
	s.met.latencyJoin.Observe(time.Since(start).Seconds())
	if err != nil {
		s.writeErr(w, err)
		return
	}
	s.writeJSON(w, http.StatusOK, d)
}

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	var req BatchRequest
	if err := decode(w, r, &req, maxBodyBytes); err != nil {
		s.writeErr(w, err)
		return
	}
	if len(req.Ops) > maxBatchOps {
		s.writeErr(w, fmt.Errorf("%w: %d ops in one batch, limit %d", errTooLarge, len(req.Ops), maxBatchOps))
		return
	}
	resp := BatchResponse{Decisions: make([]BatchResult, 0, len(req.Ops))}
	record := func(flow string, d Decision, err error) {
		if err != nil {
			resp.Decisions = append(resp.Decisions, BatchResult{Decision: Decision{Flow: flow}, Error: err.Error()})
			return
		}
		resp.Decisions = append(resp.Decisions, BatchResult{Decision: d})
	}
	for _, op := range req.Ops {
		switch op.Op {
		case "", "join":
			var spec packet.FlowSpec
			if op.Spec != nil {
				spec = *op.Spec
			}
			d, err := s.Join(op.Flow, op.Links, spec)
			record(op.Flow, d, err)
		case "leave":
			err := s.Leave(op.Flow)
			record(op.Flow, Decision{Flow: op.Flow, Admitted: err == nil}, err)
		case "reroute":
			d, err := s.Reroute(op.Flow, op.Links)
			record(op.Flow, d, err)
		default:
			record(op.Flow, Decision{}, fmt.Errorf("unknown op %q", op.Op))
		}
	}
	s.met.latencyBatch.Observe(time.Since(start).Seconds())
	s.writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleLeave(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	var req LeaveRequest
	if err := decode(w, r, &req, maxBodyBytes); err != nil {
		s.writeErr(w, err)
		return
	}
	err := s.Leave(req.Flow)
	s.met.latencyLeave.Observe(time.Since(start).Seconds())
	if err != nil {
		s.writeErr(w, err)
		return
	}
	s.writeJSON(w, http.StatusOK, Decision{Flow: req.Flow, Admitted: true})
}

func (s *Server) handleReroute(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	var req RerouteRequest
	if err := decode(w, r, &req, maxBodyBytes); err != nil {
		s.writeErr(w, err)
		return
	}
	d, err := s.Reroute(req.Flow, req.Links)
	s.met.latencyReroute.Observe(time.Since(start).Seconds())
	if err != nil {
		s.writeErr(w, err)
		return
	}
	s.writeJSON(w, http.StatusOK, d)
}

func (s *Server) handleLinks(w http.ResponseWriter, r *http.Request) {
	s.writeJSON(w, http.StatusOK, s.linkStates())
}

func (s *Server) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	s.writeJSON(w, http.StatusOK, s.SnapshotState())
}

func (s *Server) handleRestore(w http.ResponseWriter, r *http.Request) {
	var snap Snapshot
	if err := decode(w, r, &snap, maxRestoreBytes); err != nil {
		s.writeErr(w, err)
		return
	}
	rejected, err := s.Restore(snap)
	if err != nil {
		s.writeErr(w, err)
		return
	}
	s.writeJSON(w, http.StatusOK, RestoreResponse{Restored: s.NumFlows(), Rejected: rejected})
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	s.writeJSON(w, http.StatusOK, Health{
		Status:   "ok",
		Topology: s.topoName,
		Links:    s.NumLinks(),
		Flows:    s.NumFlows(),
	})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	if s.met.reg == nil {
		w.Write([]byte("{}\n")) //nolint:errcheck
		return
	}
	s.met.reg.Snapshot().WriteJSON(w) //nolint:errcheck
}
