package service

import (
	"bufio"
	"net/http"
	"strings"
	"testing"
	"time"
)

// sseOpen attaches a streaming SSE consumer to a job's event feed and
// returns the response once headers have arrived (body left open).
func sseOpen(t *testing.T, url string) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		t.Fatalf("SSE subscribe: status %d", resp.StatusCode)
	}
	return resp
}

// TestSSEHeartbeatOnIdleStream pins the keep-alive contract: an event
// stream with no job activity still carries ": hb" comment frames at the
// server's heartbeat interval.
func TestSSEHeartbeatOnIdleStream(t *testing.T) {
	srv, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 8})
	srv.sseHeartbeat = 20 * time.Millisecond

	// A long Monte-Carlo run keeps the job in-flight (and its event log
	// quiet) while we watch the stream.
	_, sr := postJob(t, ts, `{"kind":"surface.mc","params":{"distance":9,"shots":2000000,"shard_size":64,"seed":401}}`)
	id := sr.Job.ID

	resp := sseOpen(t, ts.URL+"/v1/jobs/"+id+"/events")
	defer resp.Body.Close()

	sc := bufio.NewScanner(resp.Body)
	deadline := time.After(5 * time.Second)
	got := make(chan bool, 1)
	go func() {
		for sc.Scan() {
			if strings.HasPrefix(sc.Text(), ": hb") {
				got <- true
				return
			}
		}
		got <- false
	}()
	select {
	case ok := <-got:
		if !ok {
			t.Fatal("stream ended without a heartbeat comment")
		}
	case <-deadline:
		t.Fatal("no heartbeat within 5s at a 20ms interval")
	}

	// Tear the job down so cleanup's Drain doesn't wait out the slow run.
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+id, nil)
	if dresp, err := http.DefaultClient.Do(req); err == nil {
		dresp.Body.Close()
	}
}

// TestSSEDeadSubscribersReaped proves disconnected event consumers release
// their subscriptions promptly (heartbeat write failure / context teardown)
// instead of leaking until the job finalizes.
func TestSSEDeadSubscribersReaped(t *testing.T) {
	srv, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 8})
	srv.sseHeartbeat = 20 * time.Millisecond

	_, sr := postJob(t, ts, `{"kind":"surface.mc","params":{"distance":9,"shots":2000000,"shard_size":64,"seed":402}}`)
	id := sr.Job.ID

	subs := make([]*http.Response, 3)
	for i := range subs {
		subs[i] = sseOpen(t, ts.URL+"/v1/jobs/"+id+"/events")
	}
	waitSubs := func(want int) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for time.Now().Before(deadline) {
			if srv.mgr.Subscribers(id) == want {
				return
			}
			time.Sleep(5 * time.Millisecond)
		}
		t.Fatalf("subscribers stuck at %d, want %d", srv.mgr.Subscribers(id), want)
	}
	waitSubs(3)

	// Kill two consumers without any polite shutdown: the server must
	// notice on its own and reap their subscriptions.
	subs[0].Body.Close()
	subs[1].Body.Close()
	waitSubs(1)

	// The surviving consumer still holds its slot.
	if n := srv.mgr.Subscribers(id); n != 1 {
		t.Fatalf("live subscriber lost: %d", n)
	}
	subs[2].Body.Close()
	waitSubs(0)

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+id, nil)
	if dresp, err := http.DefaultClient.Do(req); err == nil {
		dresp.Body.Close()
	}
}
