package main

import (
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"gpa"
	"gpa/internal/kernels"
)

// smallSendBuffers shrinks the send buffer of every accepted connection,
// so a client that stops reading stalls the server's write after a few
// hundred KB, whatever the host's socket-buffer autotuning allows.
type smallSendBuffers struct{ net.Listener }

func (l smallSendBuffers) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if tc, ok := c.(*net.TCPConn); ok {
		_ = tc.SetWriteBuffer(64 << 10)
	}
	return c, err
}

// waitFor polls cond until it holds or d passes.
func waitFor(d time.Duration, cond func() bool) bool {
	for deadline := time.Now().Add(d); !cond(); time.Sleep(10 * time.Millisecond) {
		if time.Now().After(deadline) {
			return false
		}
	}
	return true
}

// TestSlowClientsHoldNoWorkerSlot pins what gpad's missing WriteTimeout
// costs: a batch or sweep response is written after its jobs have
// released their worker slots, so a client that never reads a multi-MB
// response, or one that hangs up mid-body, holds one handler goroutine
// and one connection, and nothing of the engine. While one stalls,
// /statsz shows nothing in flight or queued and another request is
// answered; once its connection closes, its goroutine is gone.
func TestSlowClientsHoldNoWorkerSlot(t *testing.T) {
	eng := gpa.NewEngine(&gpa.EngineOptions{Workers: 1})
	h := newServer(eng)
	var active atomic.Int64 // handlers running
	ts := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		active.Add(1)
		defer active.Add(-1)
		h.ServeHTTP(w, r)
	}))
	ts.Listener = smallSendBuffers{ts.Listener}
	ts.Start()
	defer ts.Close()
	client := ts.Client()

	// A batch of maxFanOut profiles at sampling period 1, cycling over
	// the Table 3 rows, and a sweep of one of them over every model.
	var entries []string
	for i, rows := 0, kernels.All(); i < maxFanOut; i++ {
		entries = append(entries, `{"bench":"`+rows[i%len(rows)].ID()+`","kind":"profile","samplePeriod":1}`)
	}
	batch := `{"requests":[` + strings.Join(entries, ",") + `]}`
	sweep := `{"bench":"rodinia/streamcluster","kind":"profile","samplePeriod":1}`
	post := func(path, body string) (int, int) {
		resp, err := client.Post(ts.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		n, err := io.Copy(io.Discard, resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, int(n)
	}
	// Warm both responses, so the slow clients below are served from
	// memory, and size the batch.
	if code, n := post("/v1/batch", batch); code != http.StatusOK || n < 4<<20 {
		t.Fatalf("warm batch: status %d, %d bytes; want 200 and a multi-MB body", code, n)
	}
	const partRead = 16 << 10
	if code, n := post("/v1/sweep", sweep); code != http.StatusOK || n < 4*partRead {
		t.Fatalf("warm sweep: status %d, %d bytes; want 200 and more than %d", code, n, 4*partRead)
	}
	// closeIdle drops the kept-alive connections of both clients in use
	// (getJSON's is the default one), so the goroutines left are the
	// ones a slow client holds.
	closeIdle := func() {
		client.CloseIdleConnections()
		http.DefaultClient.CloseIdleConnections()
	}

	for _, c := range []struct {
		name, path, body string
		read             int // bytes read before the client stops; 0 = none
	}{
		{"never reads a batch", "/v1/batch", batch, 0},
		{"hangs up mid-sweep", "/v1/sweep", sweep, partRead},
	} {
		t.Run(c.name, func(t *testing.T) {
			closeIdle()
			if !waitFor(5*time.Second, func() bool { return active.Load() == 0 }) {
				t.Fatal("handlers still running before the slow client")
			}
			base, before := runtime.NumGoroutine(), eng.Stats()
			conn, err := net.Dial("tcp", ts.Listener.Addr().String())
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			_ = conn.(*net.TCPConn).SetReadBuffer(4 << 10)
			fmt.Fprintf(conn, "POST %s HTTP/1.1\r\nHost: gpad\r\nContent-Type: application/json\r\nContent-Length: %d\r\n\r\n%s",
				c.path, len(c.body), c.body)
			if c.read > 0 {
				if _, err := io.ReadFull(conn, make([]byte, c.read)); err != nil {
					t.Fatal(err)
				}
				conn.Close()
			} else {
				// Its jobs are all answered (memory hits), yet the handler
				// is still writing.
				served := func() bool {
					st := eng.Stats()
					return st.Hits+st.Coalesced+st.Misses-before.Hits-before.Coalesced-before.Misses >= maxFanOut
				}
				if !waitFor(5*time.Second, served) {
					t.Fatal("the batch's jobs were never served")
				}
				if active.Load() != 1 {
					t.Fatalf("%d handlers running, want the stalled one", active.Load())
				}
				var st statszResponse
				getJSON(t, ts.URL+"/statsz", &st)
				if st.Inflight != 0 || st.Queued != 0 {
					t.Errorf("a stalled writer holds engine work: inflight=%d queued=%d", st.Inflight, st.Queued)
				}
				if code, _ := post("/v1/advise", `{"bench":"rodinia/hotspot"}`); code != http.StatusOK {
					t.Errorf("advise beside a stalled writer: status %d", code)
				}
				if active.Load() != 1 {
					t.Errorf("%d handlers running after the advise, want the stalled one", active.Load())
				}
				conn.Close()
			}
			closeIdle()
			if !waitFor(5*time.Second, func() bool { return active.Load() == 0 && runtime.NumGoroutine() <= base }) {
				stacks := make([]byte, 1<<16)
				t.Fatalf("after the client left: %d handlers, %d goroutines (base %d)\n%s",
					active.Load(), runtime.NumGoroutine(), base, stacks[:runtime.Stack(stacks, true)])
			}
		})
	}
}

// TestSlowBodiesHoldNothing is the read side of the same contract: a
// client that sends its headers and half its body, then stalls, holds
// one handler goroutine and one connection while gpad waits for the
// rest, and nothing of the engine. A request's tenant is charged when
// its job reaches the engine, after the body is read, so the stalled
// request costs its tenant no token: on a quota of burst 1 that barely
// refills, the tenant's next complete request is answered and the one
// after it is refused. Closing the client frees its goroutine.
func TestSlowBodiesHoldNothing(t *testing.T) {
	const tenant = "metered"
	cfg := gpa.QoSConfig{Tenants: map[string]gpa.TenantQoSConfig{tenant: {RatePerSec: 0.001, Burst: 1}}}
	eng := gpa.NewEngine(&gpa.EngineOptions{Workers: 1, QoS: &cfg})
	h := newServer(eng)
	var active atomic.Int64 // handlers running
	ts := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		active.Add(1)
		defer active.Add(-1)
		h.ServeHTTP(w, r)
	}))
	ts.Listener = smallSendBuffers{ts.Listener}
	ts.Start()
	defer ts.Close()

	const body = `{"bench":"rodinia/hotspot"}`
	base := runtime.NumGoroutine()
	conn, err := net.Dial("tcp", ts.Listener.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	fmt.Fprintf(conn, "POST /v1/advise HTTP/1.1\r\nHost: gpad\r\n%s: %s\r\nContent-Type: application/json\r\nContent-Length: %d\r\n\r\n%s",
		tenantHeader, tenant, len(body), body[:len(body)/2])
	if !waitFor(5*time.Second, func() bool { return active.Load() == 1 }) {
		t.Fatal("the slow body's handler never started")
	}

	var st statszResponse
	getJSON(t, ts.URL+"/statsz", &st)
	if st.Inflight != 0 || st.Queued != 0 {
		t.Errorf("a stalled body holds engine work: inflight=%d queued=%d", st.Inflight, st.Queued)
	}
	req := map[string]any{"bench": "rodinia/hotspot"}
	if resp, out := postTenant(t, ts.URL+"/v1/advise", tenant, req); resp.StatusCode != http.StatusOK {
		t.Errorf("the tenant's complete request beside its stalled body: status %d, want 200 (the stalled body was charged a token): %s",
			resp.StatusCode, out)
	}
	if resp, _ := postTenant(t, ts.URL+"/v1/advise", tenant, req); resp.StatusCode != http.StatusTooManyRequests {
		t.Errorf("the tenant's second complete request: status %d, want 429 (the quota is live)", resp.StatusCode)
	}
	if active.Load() != 1 {
		t.Errorf("%d handlers running, want the stalled one", active.Load())
	}

	conn.Close()
	ts.Client().CloseIdleConnections()
	http.DefaultClient.CloseIdleConnections()
	if !waitFor(5*time.Second, func() bool { return active.Load() == 0 && runtime.NumGoroutine() <= base }) {
		stacks := make([]byte, 1<<16)
		t.Fatalf("after the client left: %d handlers, %d goroutines (base %d)\n%s",
			active.Load(), runtime.NumGoroutine(), base, stacks[:runtime.Stack(stacks, true)])
	}
}
