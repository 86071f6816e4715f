package qosd

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"bufqos/internal/core"
	"bufqos/internal/metrics"
	"bufqos/internal/packet"
	"bufqos/internal/topology"
	"bufqos/internal/units"
)

// testTopo is a 3-link line a->b->c->d: two FIFO+BM links and one WFQ
// link, so both admission regions are exercised through the API.
func testTopo() *topology.Topology {
	return &topology.Topology{
		Name: "qosd-test",
		Links: []topology.Link{
			{From: "a", To: "b", Rate: units.MbitsPerSecond(48), Buffer: units.KiloBytes(600), Spec: "fifo+threshold"},
			{From: "b", To: "c", Rate: units.MbitsPerSecond(48), Buffer: units.KiloBytes(600), Spec: "fifo+threshold"},
			{From: "c", To: "d", Rate: units.MbitsPerSecond(24), Buffer: units.KiloBytes(300), Spec: "wfq+threshold"},
		},
	}
}

func newTestServer(t *testing.T) (*Server, *httptest.Server) {
	t.Helper()
	s, err := New(testTopo(), metrics.NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

// call POSTs (or GETs when body is nil) JSON and decodes the reply.
func call(t *testing.T, ts *httptest.Server, method, path string, body, out any) int {
	t.Helper()
	var rd *bytes.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(b)
	} else {
		rd = bytes.NewReader(nil)
	}
	req, err := http.NewRequest(method, ts.URL+path, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("%s %s: decode: %v", method, path, err)
		}
	}
	return resp.StatusCode
}

func vidSpec() packet.FlowSpec {
	return packet.FlowSpec{
		PeakRate:   units.MbitsPerSecond(6),
		TokenRate:  units.MbitsPerSecond(2),
		BucketSize: units.KiloBytes(60),
	}
}

func TestJoinLeaveRerouteAPI(t *testing.T) {
	_, ts := newTestServer(t)

	var d Decision
	join := JoinRequest{Flow: "f0", Links: []string{"a->b", "b->c"}, Spec: vidSpec()}
	if code := call(t, ts, "POST", "/v1/join", join, &d); code != 200 || !d.Admitted {
		t.Fatalf("join: code %d, decision %+v", code, d)
	}

	// Duplicate join conflicts on the flow table.
	var apiErr apiError
	if code := call(t, ts, "POST", "/v1/join", join, &apiErr); code != 409 {
		t.Errorf("duplicate join: code %d (want 409), err %q", code, apiErr.Error)
	}

	// Unknown flow operations are 404.
	if code := call(t, ts, "POST", "/v1/leave", LeaveRequest{Flow: "ghost"}, &apiErr); code != 404 {
		t.Errorf("leave unknown: code %d (want 404)", code)
	}
	if code := call(t, ts, "POST", "/v1/reroute", RerouteRequest{Flow: "ghost", Links: []string{"a->b"}}, &apiErr); code != 404 {
		t.Errorf("reroute unknown: code %d (want 404)", code)
	}

	// Unknown link is a malformed request.
	bad := JoinRequest{Flow: "f1", Links: []string{"nowhere"}, Spec: vidSpec()}
	if code := call(t, ts, "POST", "/v1/join", bad, &apiErr); code != 400 {
		t.Errorf("unknown link: code %d (want 400)", code)
	}

	// Reroute moves the reservation: a->b keeps it (shared), b->c
	// releases, c->d admits.
	rr := RerouteRequest{Flow: "f0", Links: []string{"a->b", "c->d"}}
	if code := call(t, ts, "POST", "/v1/reroute", rr, &d); code != 200 || !d.Admitted {
		t.Fatalf("reroute: code %d, decision %+v", code, d)
	}
	var links []LinkState
	call(t, ts, "GET", "/v1/links", nil, &links)
	wantFlows := map[string]int{"a->b": 1, "b->c": 0, "c->d": 1}
	for _, l := range links {
		if l.Flows != wantFlows[l.Name] {
			t.Errorf("after reroute, link %s has %d flows, want %d", l.Name, l.Flows, wantFlows[l.Name])
		}
	}

	// Leave drains everything back to zero.
	if code := call(t, ts, "POST", "/v1/leave", LeaveRequest{Flow: "f0"}, &d); code != 200 {
		t.Fatalf("leave: code %d", code)
	}
	call(t, ts, "GET", "/v1/links", nil, &links)
	for _, l := range links {
		if l.Flows != 0 || l.SumSigma != 0 || l.SumRho != 0 {
			t.Errorf("after leave, link %s not empty: %+v", l.Name, l)
		}
	}
}

// TestJoinRejectionNamesFirstRefusingLink fills one mid-route link to
// its buffer bound and checks a spanning join reports that link with
// the same RejectReason the offline engine's admitter produces — and
// that the refused join left the other links untouched (atomicity).
func TestJoinRejectionNamesFirstRefusingLink(t *testing.T) {
	_, ts := newTestServer(t)
	spec := vidSpec()

	// Fill b->c alone: FIFO region 600·(1 − 2n/48) ≥ 60n admits 7.
	var d Decision
	n := 0
	for ; ; n++ {
		j := JoinRequest{Flow: fmt.Sprintf("fill%d", n), Links: []string{"b->c"}, Spec: spec}
		call(t, ts, "POST", "/v1/join", j, &d)
		if !d.Admitted {
			break
		}
	}

	// The same sequence against the serial admitter must agree on both
	// the count and the reason (qnet and qosd share checkRegion).
	serial := core.NewSerialAdmitter(core.DisciplineFIFO, units.MbitsPerSecond(48), units.KiloBytes(600))
	var want core.RejectReason
	for {
		if want = serial.Admit(spec); want != core.Accepted {
			break
		}
	}
	if serial.NumFlows() != n {
		t.Fatalf("qosd admitted %d flows on b->c, serial admitter %d", n, serial.NumFlows())
	}
	if d.Reason != want.String() || d.Link != "b->c" {
		t.Errorf("rejection = {link %s, reason %s}, want {b->c, %s}", d.Link, d.Reason, want)
	}

	// A spanning join refuses at b->c and books nothing on a->b.
	span := JoinRequest{Flow: "span", Links: []string{"a->b", "b->c"}, Spec: spec}
	call(t, ts, "POST", "/v1/join", span, &d)
	if d.Admitted || d.Link != "b->c" || d.Reason != want.String() {
		t.Errorf("spanning join decision %+v, want rejection at b->c (%s)", d, want)
	}
	var links []LinkState
	call(t, ts, "GET", "/v1/links", nil, &links)
	if links[0].Flows != 0 || links[0].SumSigma != 0 {
		t.Errorf("refused route booked state on a->b: %+v", links[0])
	}

	// Bandwidth-limited rejection: eq. (5)/(7)'s rate bound.
	hog := packet.FlowSpec{TokenRate: units.MbitsPerSecond(30), BucketSize: units.KiloBytes(10)}
	call(t, ts, "POST", "/v1/join", JoinRequest{Flow: "hog1", Links: []string{"a->b"}, Spec: hog}, &d)
	if !d.Admitted {
		t.Fatalf("first hog refused: %+v", d)
	}
	call(t, ts, "POST", "/v1/join", JoinRequest{Flow: "hog2", Links: []string{"a->b"}, Spec: hog}, &d)
	if d.Admitted || d.Reason != core.BandwidthLimited.String() {
		t.Errorf("second hog decision %+v, want bandwidth-limited", d)
	}
}

func TestBatchJoin(t *testing.T) {
	_, ts := newTestServer(t)
	hog := packet.FlowSpec{TokenRate: units.MbitsPerSecond(30), BucketSize: units.KiloBytes(10)}
	vid := vidSpec()
	req := BatchRequest{Ops: []BatchOp{
		{Flow: "b0", Links: []string{"a->b", "b->c"}, Spec: &vid},
		{Flow: "b1", Links: []string{"a->b"}, Spec: &hog},
		{Flow: "b2", Links: []string{"a->b"}, Spec: &hog}, // Σρ over rate: rejected
		{Flow: "b0", Links: []string{"a->b"}, Spec: &vid}, // duplicate: error
		{Flow: "b3", Links: []string{"nope"}, Spec: &vid}, // unknown link: error
	}}
	var resp BatchResponse
	if code := call(t, ts, "POST", "/v1/batch", req, &resp); code != 200 {
		t.Fatalf("batch: code %d", code)
	}
	if len(resp.Decisions) != 5 {
		t.Fatalf("batch returned %d decisions, want 5", len(resp.Decisions))
	}
	if !resp.Decisions[0].Admitted || !resp.Decisions[1].Admitted {
		t.Errorf("b0/b1 should admit: %+v", resp.Decisions[:2])
	}
	if resp.Decisions[2].Admitted || resp.Decisions[2].Reason != core.BandwidthLimited.String() {
		t.Errorf("b2 = %+v, want bandwidth-limited rejection", resp.Decisions[2])
	}
	if resp.Decisions[3].Error == "" || resp.Decisions[4].Error == "" {
		t.Errorf("duplicate/unknown-link entries should carry errors: %+v", resp.Decisions[3:])
	}
}

// TestBatchMixedOps drives the ordered mixed stream: a join whose
// reservations a later leave in the same batch frees, a reroute that
// only fits because of that leave, and a trailing unknown op.
func TestBatchMixedOps(t *testing.T) {
	s, ts := newTestServer(t)
	// Alone on a->b the hog satisfies eq. (8): B(1-30/48) = 225KB >= 200KB.
	// With m1 alongside the burst sum 260KB overflows B(1-32/48) = 200KB.
	hog := packet.FlowSpec{TokenRate: units.MbitsPerSecond(30), BucketSize: units.KiloBytes(200)}
	spec := vidSpec()
	req := BatchRequest{Ops: []BatchOp{
		{Op: "join", Flow: "m0", Links: []string{"a->b"}, Spec: &hog},
		{Flow: "m1", Links: []string{"b->c"}, Spec: &spec}, // empty op defaults to join
		{Op: "reroute", Flow: "m1", Links: []string{"a->b"}},
		{Op: "leave", Flow: "m0"},
		{Op: "reroute", Flow: "m1", Links: []string{"a->b"}},
		{Op: "leave", Flow: "nope"},
		{Op: "split", Flow: "m1"},
	}}
	var resp BatchResponse
	if code := call(t, ts, "POST", "/v1/batch", req, &resp); code != 200 {
		t.Fatalf("batch: code %d", code)
	}
	if len(resp.Decisions) != 7 {
		t.Fatalf("batch returned %d decisions, want 7", len(resp.Decisions))
	}
	if !resp.Decisions[0].Admitted || !resp.Decisions[1].Admitted {
		t.Errorf("joins should admit: %+v", resp.Decisions[:2])
	}
	// With the hog still holding a->b, the first reroute must refuse
	// and name the refusing link; after the leave it must fit.
	if resp.Decisions[2].Admitted || resp.Decisions[2].Link != "a->b" {
		t.Errorf("reroute before leave = %+v, want a->b rejection", resp.Decisions[2])
	}
	if !resp.Decisions[3].Admitted {
		t.Errorf("leave m0 = %+v", resp.Decisions[3])
	}
	if !resp.Decisions[4].Admitted {
		t.Errorf("reroute after leave = %+v, want admitted", resp.Decisions[4])
	}
	if resp.Decisions[5].Error == "" || resp.Decisions[6].Error == "" {
		t.Errorf("unknown flow/op entries should carry errors: %+v", resp.Decisions[5:])
	}
	if s.NumFlows() != 1 {
		t.Errorf("NumFlows = %d, want 1 (m1 only)", s.NumFlows())
	}
}

// TestSnapshotRestoreRoundTrip drains a populated daemon into a fresh
// one and checks the states serialize identically.
func TestSnapshotRestoreRoundTrip(t *testing.T) {
	_, ts := newTestServer(t)
	for i := 0; i < 5; i++ {
		links := []string{"a->b", "b->c"}
		if i%2 == 1 {
			links = []string{"b->c", "c->d"}
		}
		var d Decision
		call(t, ts, "POST", "/v1/join", JoinRequest{Flow: fmt.Sprintf("f%d", i), Links: links, Spec: vidSpec()}, &d)
		if !d.Admitted {
			t.Fatalf("f%d refused", i)
		}
	}

	var snap Snapshot
	call(t, ts, "GET", "/v1/snapshot", nil, &snap)
	if len(snap.Flows) != 5 || snap.Topology != "qosd-test" {
		t.Fatalf("snapshot %d flows, topology %q", len(snap.Flows), snap.Topology)
	}

	_, ts2 := newTestServer(t)
	var rr RestoreResponse
	if code := call(t, ts2, "POST", "/v1/restore", snap, &rr); code != 200 {
		t.Fatalf("restore: code %d", code)
	}
	if rr.Restored != 5 || len(rr.Rejected) != 0 {
		t.Fatalf("restore = %+v, want 5 restored, none rejected", rr)
	}

	// Byte-identical round trip: flows are name-sorted and link
	// aggregates rebuilt from the same reservations.
	b1, _ := json.Marshal(snap)
	var snap2 Snapshot
	call(t, ts2, "GET", "/v1/snapshot", nil, &snap2)
	b2, _ := json.Marshal(snap2)
	if !bytes.Equal(b1, b2) {
		t.Errorf("snapshot round trip drifted:\n%s\nvs\n%s", b1, b2)
	}

	// Restore also resets: restoring an empty snapshot clears state.
	if code := call(t, ts2, "POST", "/v1/restore", Snapshot{Topology: "qosd-test"}, &rr); code != 200 || rr.Restored != 0 {
		t.Fatalf("empty restore: code %d, %+v", code, rr)
	}
	var links []LinkState
	call(t, ts2, "GET", "/v1/links", nil, &links)
	for _, l := range links {
		if l.Flows != 0 || l.SumSigma != 0 {
			t.Errorf("link %s not empty after reset: %+v", l.Name, l)
		}
	}
}

func TestHealthzMetricz(t *testing.T) {
	_, ts := newTestServer(t)
	var d Decision
	call(t, ts, "POST", "/v1/join", JoinRequest{Flow: "f0", Links: []string{"a->b"}, Spec: vidSpec()}, &d)

	var h Health
	if code := call(t, ts, "GET", "/healthz", nil, &h); code != 200 {
		t.Fatalf("healthz: code %d", code)
	}
	if h.Status != "ok" || h.Links != 3 || h.Flows != 1 {
		t.Errorf("healthz = %+v", h)
	}

	resp, err := ts.Client().Get(ts.URL + "/metricz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body) //nolint:errcheck
	for _, want := range []string{"qosd.join.accepted", "qosd.latency.join", "qosd.flows.active"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("metricz missing %s", want)
		}
	}
	var m map[string]any
	if err := json.Unmarshal(buf.Bytes(), &m); err != nil {
		t.Errorf("metricz is not JSON: %v", err)
	}
}

// TestWireSpecEncoding exercises the suffixed wire units end to end: a
// hand-written JSON body with "2Mbit/s"-style strings must decode to
// the same reservation a Go-marshalled body produces.
func TestWireSpecEncoding(t *testing.T) {
	_, ts := newTestServer(t)
	body := `{"flow":"w0","links":["a->b"],"spec":{"peak":"6Mbit/s","token":"2Mbit/s","bucket":"60KB"}}`
	resp, err := ts.Client().Post(ts.URL+"/v1/join", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var d Decision
	if err := json.NewDecoder(resp.Body).Decode(&d); err != nil {
		t.Fatal(err)
	}
	if !d.Admitted {
		t.Fatalf("wire-typed join refused: %+v", d)
	}
	var snap Snapshot
	call(t, ts, "GET", "/v1/snapshot", nil, &snap)
	if snap.Flows[0].Spec != vidSpec() {
		t.Errorf("decoded spec %+v, want %+v", snap.Flows[0].Spec, vidSpec())
	}
}

// TestJoinRejectsNonFiniteSpec: a NaN reservation is a client error and
// leaves the daemon's state untouched; before the fix it was admitted
// and turned off admission control on the link for every later join.
func TestJoinRejectsNonFiniteSpec(t *testing.T) {
	_, ts := newTestServer(t)
	var d Decision
	call(t, ts, "POST", "/v1/join", JoinRequest{Flow: "f0", Links: []string{"a->b"}, Spec: vidSpec()}, &d)
	var before Snapshot
	if code := call(t, ts, "GET", "/v1/snapshot", nil, &before); code != 200 {
		t.Fatalf("snapshot: code %d", code)
	}
	for _, body := range []string{
		`{"flow":"nan","links":["a->b"],"spec":{"token":"NaNMbit/s","bucket":"10KB"}}`,
		`{"flow":"inf","links":["a->b"],"spec":{"token":"InfMbit/s","bucket":"10KB"}}`,
		`{"flow":"big","links":["a->b"],"spec":{"token":"1Mbit/s","bucket":"InfKB"}}`,
	} {
		resp, err := ts.Client().Post(ts.URL+"/v1/join", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode < 400 || resp.StatusCode >= 500 {
			t.Errorf("%s: code %d, want a client error", body, resp.StatusCode)
		}
	}
	var after Snapshot
	if code := call(t, ts, "GET", "/v1/snapshot", nil, &after); code != 200 {
		t.Fatalf("snapshot after: code %d", code)
	}
	if !reflect.DeepEqual(before, after) {
		t.Errorf("rejected joins changed the snapshot:\n%+v\n%+v", before, after)
	}
	probe := JoinRequest{Flow: "probe", Links: []string{"a->b"}, Spec: packet.FlowSpec{
		PeakRate: units.Gbps, TokenRate: units.Gbps, BucketSize: units.MegaBytes(100),
	}}
	if call(t, ts, "POST", "/v1/join", probe, &d); d.Admitted || d.Reason != core.BandwidthLimited.String() {
		t.Errorf("1 Gb/s probe on a 48 Mb/s link: %+v, want bandwidth-limited", d)
	}
}

// snapshotOf fetches the daemon's full state.
func snapshotOf(t *testing.T, ts *httptest.Server) Snapshot {
	t.Helper()
	var snap Snapshot
	if code := call(t, ts, "GET", "/v1/snapshot", nil, &snap); code != 200 {
		t.Fatalf("snapshot: code %d", code)
	}
	return snap
}

// postRaw POSTs body as is and returns the status code.
func postRaw(t *testing.T, ts *httptest.Server, path string, body []byte) int {
	t.Helper()
	resp, err := ts.Client().Post(ts.URL+path, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp.StatusCode
}

// TestOversizedBodyRefused: a join or batch body over the request
// limit is refused with 413 before any decision, even when every entry
// in it is a valid join, and the flow table is unchanged.
func TestOversizedBodyRefused(t *testing.T) {
	_, ts := newTestServer(t)
	var d Decision
	call(t, ts, "POST", "/v1/join", JoinRequest{Flow: "f0", Links: []string{"a->b"}, Spec: vidSpec()}, &d)
	before := snapshotOf(t, ts)

	spec := `"spec":{"peak":"6Mbit/s","token":"2Mbit/s","bucket":"60KB"}`
	long := strings.Repeat("x", maxBodyBytes)
	join := fmt.Sprintf(`{"flow":"%s","links":["a->b"],%s}`, long, spec)
	var ops []string
	for i := 0; i*64<<10 <= maxBodyBytes; i++ {
		ops = append(ops, fmt.Sprintf(`{"flow":"%d%s","links":["a->b"],%s}`, i, long[:64<<10], spec))
	}
	batch := `{"ops":[` + strings.Join(ops, ",") + `]}`
	for path, body := range map[string]string{"/v1/join": join, "/v1/batch": batch} {
		if code := postRaw(t, ts, path, []byte(body)); code != http.StatusRequestEntityTooLarge {
			t.Errorf("%s with a %d-byte body: code %d, want 413", path, len(body), code)
		}
	}
	if after := snapshotOf(t, ts); !reflect.DeepEqual(before, after) {
		t.Errorf("refused bodies changed the snapshot:\n%+v\n%+v", before, after)
	}
}

// TestOverCapBatchRefused: a batch of more operations than the limit is
// refused with 413 as a whole — not even its leading valid join is
// decided — and the flow table is unchanged.
func TestOverCapBatchRefused(t *testing.T) {
	_, ts := newTestServer(t)
	before := snapshotOf(t, ts)
	vid := vidSpec()
	req := BatchRequest{Ops: []BatchOp{{Flow: "first", Links: []string{"a->b"}, Spec: &vid}}}
	for len(req.Ops) <= maxBatchOps {
		req.Ops = append(req.Ops, BatchOp{Op: "leave", Flow: "nope"})
	}
	if code := call(t, ts, "POST", "/v1/batch", req, nil); code != http.StatusRequestEntityTooLarge {
		t.Errorf("batch of %d ops: code %d, want 413", len(req.Ops), code)
	}
	if after := snapshotOf(t, ts); !reflect.DeepEqual(before, after) {
		t.Errorf("refused batch changed the snapshot:\n%+v\n%+v", before, after)
	}
	// One op fewer is within the limit and decided.
	req.Ops = req.Ops[:maxBatchOps]
	var resp BatchResponse
	if code := call(t, ts, "POST", "/v1/batch", req, &resp); code != 200 || len(resp.Decisions) != maxBatchOps {
		t.Fatalf("batch of %d ops: code %d, %d decisions", len(req.Ops), code, len(resp.Decisions))
	}
	if !resp.Decisions[0].Admitted {
		t.Errorf("leading join of a batch at the limit: %+v", resp.Decisions[0])
	}
}
