// Chaos kill-matrix: the consumer-level proof that distributed execution
// keeps the repo's headline promise under failure. For surface-code and
// readout Monte-Carlo jobs at engine worker counts 1 and 4, a pauli.mc job
// that stops early on its convergence guard, and a surface.mc job whose
// budget lies below the default convergence floor, the merged JSON result
// body must be BYTE-IDENTICAL across four fleet shapes:
//
//	standalone            — no coordinator, the plain in-process path
//	healthy fleet         — 3 HTTP workers, no faults
//	killed worker         — a worker claims a unit and dies mid-shard; its
//	                        lease expires and the unit is retried elsewhere
//	slow worker           — a straggler renews its lease but never reports,
//	                        forcing a hedged re-dispatch (work stealing)
//
// The fleet runs the real stack: service servers over HTTP, dist.Client
// wire calls, lease sweeps on real timers. Faulty workers are driven
// manually through the same wire API a real worker uses. The final
// multi-process tests SIGKILL actual qisimd worker processes and an actual
// -data-dir coordinator process, and start a worker before its
// coordinator.
package qisim_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"qisim/internal/dist"
	"qisim/internal/jobs"
	"qisim/internal/service"
	"qisim/internal/simrun"
)

// chaosJob is one cell of the matrix.
type chaosJob struct {
	name string
	body string // POST /v1/jobs payload
	// converged marks a job that stops on its convergence guard before
	// spending its budget.
	converged bool
}

func chaosMatrix() []chaosJob {
	var out []chaosJob
	for _, ew := range []int{1, 4} {
		out = append(out,
			chaosJob{
				name: fmt.Sprintf("surface.mc/engine-workers-%d", ew),
				body: fmt.Sprintf(`{"kind":"surface.mc","params":{"distance":3,"shots":4000,"shard_size":128,"seed":11,"workers":%d}}`, ew),
			},
			chaosJob{
				name: fmt.Sprintf("readout.mc/engine-workers-%d", ew),
				body: fmt.Sprintf(`{"kind":"readout.mc","params":{"shots":4000,"shard_size":256,"seed":5,"workers":%d}}`, ew),
			},
		)
	}
	return append(out,
		chaosJob{
			name:      "pauli.mc/rel-se-converged",
			body:      `{"kind":"pauli.mc","params":{"qasm":"qreg q[3]; creg c[3]; h q[0]; cx q[0],q[1]; cx q[1],q[2]; measure q[0]->c[0]; measure q[1]->c[1]; measure q[2]->c[2];","shots":3000,"shard_size":128,"seed":5,"rel_se":0.5}}`,
			converged: true,
		},
		chaosJob{
			name: "surface.mc/below-convergence-floor",
			body: `{"kind":"surface.mc","params":{"distance":3,"shots":500,"shard_size":64,"seed":11,"rel_se":0.1}}`,
		},
	)
}

// chaosServer builds, starts and tears down one service server + HTTP stack.
func chaosServer(t *testing.T, cfg service.Config) (*service.Server, *httptest.Server) {
	t.Helper()
	srv, err := service.New(cfg)
	if err != nil {
		t.Fatalf("service.New: %v", err)
	}
	srv.Start()
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Drain(ctx); err != nil {
			t.Errorf("cleanup drain: %v", err)
		}
	})
	return srv, ts
}

type chaosSubmitResponse struct {
	Outcome string        `json:"outcome"`
	Job     jobs.Snapshot `json:"job"`
}

// chaosRun submits one job over HTTP, polls it to completion and returns
// its result body, failing the test on any error. It calls t.Fatal, so it
// runs on the test goroutine; a job submitted from another goroutine goes
// through startChaosRun and awaitChaosRun.
func chaosRun(t *testing.T, base, body string) []byte {
	t.Helper()
	got, err := submitAndPoll(base, body)
	if err != nil {
		t.Fatal(err)
	}
	return got
}

// submitAndPoll submits one job over HTTP and polls it to completion. It
// returns an error for a job that is refused, fails, finishes truncated or
// does not finish within 60 s, and touches no testing.T, so any goroutine
// may call it.
func submitAndPoll(base, body string) ([]byte, error) {
	resp, err := http.Post(base+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		return nil, err
	}
	var sr chaosSubmitResponse
	err = json.NewDecoder(resp.Body).Decode(&sr)
	resp.Body.Close()
	if err != nil {
		return nil, fmt.Errorf("decode submit: %v", err)
	}
	if resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("submit: status %d", resp.StatusCode)
	}
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(base + "/v1/jobs/" + sr.Job.ID)
		if err != nil {
			return nil, err
		}
		var snap jobs.Snapshot
		err = json.NewDecoder(resp.Body).Decode(&snap)
		resp.Body.Close()
		if err != nil {
			return nil, fmt.Errorf("decode snapshot: %v", err)
		}
		switch snap.State {
		case jobs.StateDone:
			if snap.Status == nil || snap.Status.Truncated {
				return nil, fmt.Errorf("job finished truncated: %+v", snap.Status)
			}
			return []byte(snap.Result), nil
		case jobs.StateFailed:
			return nil, fmt.Errorf("job failed: %s: %s", snap.ErrorClass, snap.Error)
		}
		time.Sleep(2 * time.Millisecond)
	}
	return nil, errors.New("job did not finish in 60s")
}

// chaosOutcome is what a submitAndPoll run on its own goroutine returns.
type chaosOutcome struct {
	body []byte
	err  error
}

// startChaosRun runs submitAndPoll on its own goroutine, so the test can
// disturb the fleet while the job runs.
func startChaosRun(base, body string) <-chan chaosOutcome {
	done := make(chan chaosOutcome, 1)
	go func() {
		b, err := submitAndPoll(base, body)
		done <- chaosOutcome{b, err}
	}()
	return done
}

// awaitChaosRun waits up to timeout for a job started by startChaosRun and
// returns its result body, failing the test on the job's error or the
// timeout.
func awaitChaosRun(t *testing.T, done <-chan chaosOutcome, timeout time.Duration) []byte {
	t.Helper()
	select {
	case o := <-done:
		if o.err != nil {
			t.Fatal(o.err)
		}
		return o.body
	case <-time.After(timeout):
		t.Fatalf("the job did not finish in %v", timeout)
		return nil
	}
}

// startChaosWorkers launches n healthy dist.Workers over the wire API and
// returns once the coordinator has heard from each.
func startChaosWorkers(t *testing.T, base string, n int) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	var ids []string
	for i := 0; i < n; i++ {
		id := fmt.Sprintf("healthy-%d", i)
		ids = append(ids, id)
		client := &dist.Client{Base: base}
		w, err := dist.NewWorker(dist.WorkerConfig{
			ID: id, Coordinator: client, Cores: service.BuildCore,
			PollInterval: 2 * time.Millisecond, Seed: int64(i + 1),
		})
		if err != nil {
			cancel()
			t.Fatalf("NewWorker: %v", err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			w.Run(ctx) //nolint:errcheck // ends by cancellation
		}()
	}
	t.Cleanup(func() {
		cancel()
		wg.Wait()
	})
	waitJoined(t, base, ids...)
}

// waitJoined waits until the coordinator at base lists every worker in
// ids: a worker joins the fleet with its first claim.
func waitJoined(t *testing.T, base string, ids ...string) {
	t.Helper()
	for deadline := time.Now().Add(20 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		var status struct{ Workers []struct{ ID string } }
		if resp, err := http.Get(base + "/v1/fleet/status"); err == nil {
			json.NewDecoder(resp.Body).Decode(&status) //nolint:errcheck // retried below
			resp.Body.Close()
		}
		joined := 0
		for _, w := range status.Workers {
			for _, id := range ids {
				if w.ID == id {
					joined++
				}
			}
		}
		if joined == len(ids) {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d of workers %v joined the fleet at %s in 20s", joined, ids, base)
		}
	}
}

// registerWorker admits a manual worker over the wire API with a claim
// that asks for no work. It must run BEFORE the job is submitted:
// admission checks for live workers, and a coordinator that has heard from
// none degrades to the local lane instead of granting leases.
func registerWorker(t *testing.T, base, id string) *dist.Client {
	t.Helper()
	client := &dist.Client{Base: base}
	if g, err := client.Claim(context.Background(), id, "", 0); err != nil || g != nil {
		t.Fatalf("first claim of %s: %+v, %v; want no work", id, g, err)
	}
	return client
}

// claimOneUnit polls the wire API until the coordinator hands the manual
// worker a lease (the job is submitted concurrently).
func claimOneUnit(t *testing.T, client *dist.Client, id string) *dist.LeaseGrant {
	t.Helper()
	deadline := time.Now().Add(20 * time.Second)
	for time.Now().Before(deadline) {
		g, err := client.Claim(context.Background(), id, "", 0)
		if err != nil {
			t.Fatalf("claim: %v", err)
		}
		if g != nil {
			return g
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("%s never received a lease", id)
	return nil
}

const chaosLeaseTTL = 200 * time.Millisecond

// TestChaosKillMatrix is the non-negotiable contract of the distributed
// layer, pinned end to end: the result body is byte-identical whether the
// job ran standalone, on a healthy fleet, on a fleet that lost a worker
// mid-shard, or on a fleet with a straggler that had to be hedged.
func TestChaosKillMatrix(t *testing.T) {
	for _, job := range chaosMatrix() {
		job := job
		t.Run(job.name, func(t *testing.T) {
			_, solo := chaosServer(t, service.Config{Workers: 2})
			want := chaosRun(t, solo.URL, job.body)
			var env struct {
				Result struct {
					Status simrun.Status `json:"status"`
				} `json:"result"`
			}
			if err := json.Unmarshal(want, &env); err != nil {
				t.Fatalf("standalone body: %v", err)
			}
			if env.Result.Status.Converged != job.converged {
				t.Fatalf("standalone status %+v, want converged=%v", env.Result.Status, job.converged)
			}

			t.Run("healthy-fleet", func(t *testing.T) {
				coord, ts := chaosServer(t, service.Config{Workers: 2, Dist: service.DistConfig{
					Enabled: true, LeaseTTL: 5 * time.Second, UnitShards: 4,
				}})
				startChaosWorkers(t, ts.URL, 3)
				got := chaosRun(t, ts.URL, job.body)
				if !bytes.Equal(got, want) {
					t.Fatalf("healthy fleet differs from standalone:\n%s\n%s", got, want)
				}
				if st := coord.Dist().Stats(); st.UnitsDone == 0 {
					t.Fatalf("fleet never dispatched: %+v", st)
				}
			})

			t.Run("killed-worker", func(t *testing.T) {
				coord, ts := chaosServer(t, service.Config{Workers: 2, Dist: service.DistConfig{
					Enabled: true, LeaseTTL: chaosLeaseTTL, UnitShards: 4,
				}})
				// The doomed worker registers alone, grabs the first unit,
				// and is "SIGKILLed": no report or renewal ever arrives.
				doomed := registerWorker(t, ts.URL, "doomed")
				done := startChaosRun(ts.URL, job.body)
				claimOneUnit(t, doomed, "doomed")
				// Only now do the healthy workers join; one of them must
				// pick up the expired lease's requeue.
				startChaosWorkers(t, ts.URL, 2)
				got := awaitChaosRun(t, done, 90*time.Second)
				if !bytes.Equal(got, want) {
					t.Fatalf("killed-worker fleet differs from standalone:\n%s\n%s", got, want)
				}
				if st := coord.Dist().Stats(); st.Expired == 0 {
					t.Fatalf("kill was never observed (no lease expiry): %+v", st)
				}
			})

			t.Run("slow-worker-steal", func(t *testing.T) {
				coord, ts := chaosServer(t, service.Config{Workers: 2, Dist: service.DistConfig{
					Enabled: true, LeaseTTL: chaosLeaseTTL, UnitShards: 4,
				}})
				// The straggler holds its unit alive with renewals but never
				// reports — the hedge (2×TTL) must re-dispatch its range to a
				// healthy worker, whose report wins.
				client := registerWorker(t, ts.URL, "slow")
				done := startChaosRun(ts.URL, job.body)
				g := claimOneUnit(t, client, "slow")
				stopRenew := make(chan struct{})
				var renewWG sync.WaitGroup
				renewWG.Add(1)
				go func() {
					defer renewWG.Done()
					tick := time.NewTicker(chaosLeaseTTL / 4)
					defer tick.Stop()
					for {
						select {
						case <-stopRenew:
							return
						case <-tick.C:
							err := client.Renew(context.Background(), "slow", g.Key, g.Start, g.End)
							if errors.Is(err, dist.ErrGone) {
								return // hedge winner reported; lease resolved
							}
						}
					}
				}()
				startChaosWorkers(t, ts.URL, 2)
				got := awaitChaosRun(t, done, 90*time.Second)
				close(stopRenew)
				renewWG.Wait()
				if !bytes.Equal(got, want) {
					t.Fatalf("slow-worker fleet differs from standalone:\n%s\n%s", got, want)
				}
				if st := coord.Dist().Stats(); st.Steals == 0 {
					t.Fatalf("straggler was never hedged: %+v", st)
				}
			})
		})
	}
}

// procFleet builds the qisimd binary once per test and runs its processes,
// all of which are killed at cleanup.
type procFleet struct {
	t     *testing.T
	bin   string
	dir   string
	procs []*exec.Cmd
}

func newProcFleet(t *testing.T) *procFleet {
	t.Helper()
	if testing.Short() {
		t.Skip("multi-process fleet test skipped in -short mode")
	}
	f := &procFleet{t: t, dir: t.TempDir()}
	f.bin = filepath.Join(f.dir, "qisimd")
	build := exec.Command("go", "build", "-o", f.bin, "./cmd/qisimd")
	build.Dir = "."
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build qisimd: %v\n%s", err, out)
	}
	t.Cleanup(func() {
		for _, p := range f.procs {
			p.Process.Kill() //nolint:errcheck
		}
		for _, p := range f.procs {
			p.Wait() //nolint:errcheck
		}
	})
	return f
}

func (f *procFleet) freePort() int {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		f.t.Fatal(err)
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port
}

func (f *procFleet) waitReady(base string) {
	deadline := time.Now().Add(20 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return
			}
		}
		time.Sleep(10 * time.Millisecond)
	}
	f.t.Fatalf("%s never became healthy", base)
}

func (f *procFleet) spawn(args ...string) *exec.Cmd {
	cmd := exec.Command(f.bin, args...)
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	if err := cmd.Start(); err != nil {
		f.t.Fatalf("start %v: %v", args, err)
	}
	f.procs = append(f.procs, cmd)
	return cmd
}

// coordinator starts a -data-dir coordinator on port and waits until it
// is healthy.
func (f *procFleet) coordinator(port int) *exec.Cmd {
	cmd := f.spawn("-addr", fmt.Sprintf("127.0.0.1:%d", port), "-role", "coordinator",
		"-lease-ttl", "300ms", "-unit-shards", "2", "-workers", "2",
		"-data-dir", filepath.Join(f.dir, "coord"), "-log-level", "warn")
	f.waitReady(fmt.Sprintf("http://127.0.0.1:%d", port))
	return cmd
}

// workers starts n worker processes proc-w0… against coordBase, waits
// until each serves its own /healthz, and returns them with their base
// URLs.
func (f *procFleet) workers(coordBase string, n int) ([]*exec.Cmd, []string) {
	var procs []*exec.Cmd
	var bases []string
	for i := 0; i < n; i++ {
		p := f.freePort()
		base := fmt.Sprintf("http://127.0.0.1:%d", p)
		procs = append(procs, f.spawn("-addr", fmt.Sprintf("127.0.0.1:%d", p), "-role", "worker",
			"-coordinator-url", coordBase, "-worker-id", fmt.Sprintf("proc-w%d", i),
			"-workers", "2", "-log-level", "warn"))
		bases = append(bases, base)
		f.waitReady(base)
	}
	return procs, bases
}

// TestFleetSIGKILLMultiProcess runs the real binary: a coordinator qisimd,
// three worker qisimd processes, one of which is SIGKILLed while the job
// runs. The surviving fleet must finish with bytes identical to an
// in-process standalone run.
func TestFleetSIGKILLMultiProcess(t *testing.T) {
	f := newProcFleet(t)
	coordPort := f.freePort()
	coordBase := fmt.Sprintf("http://127.0.0.1:%d", coordPort)
	f.coordinator(coordPort)
	procs, _ := f.workers(coordBase, 3)
	victim := procs[0]

	job := `{"kind":"surface.mc","params":{"distance":3,"shots":6000,"shard_size":128,"seed":17}}`
	_, solo := chaosServer(t, service.Config{Workers: 2})
	want := chaosRun(t, solo.URL, job)

	done := startChaosRun(coordBase, job)
	// SIGKILL one worker while the fleet is (very likely) mid-job. Whether
	// or not it held a lease at that instant, the survivors must converge
	// on the identical bytes.
	time.Sleep(150 * time.Millisecond)
	if err := victim.Process.Kill(); err != nil {
		t.Fatalf("SIGKILL victim: %v", err)
	}
	got := awaitChaosRun(t, done, 90*time.Second)
	if !bytes.Equal(got, want) {
		t.Fatalf("post-SIGKILL fleet result differs from standalone:\n%s\n%s", got, want)
	}
}

// TestFleetAllWorkersSIGKILLedMultiProcess SIGKILLs every worker process
// mid-job. The coordinator hears from none of them, so about 2¼ lease TTLs
// after their last contact the job's pending units run on its local lane:
// the job returns the bytes of an in-process standalone run, and every
// killed worker reads lost.
func TestFleetAllWorkersSIGKILLedMultiProcess(t *testing.T) {
	f := newProcFleet(t)
	coordPort := f.freePort()
	coordBase := fmt.Sprintf("http://127.0.0.1:%d", coordPort)
	f.coordinator(coordPort)
	procs, _ := f.workers(coordBase, 2)
	waitJoined(t, coordBase, "proc-w0", "proc-w1")

	job := `{"kind":"surface.mc","params":{"distance":5,"shots":200000,"shard_size":256,"seed":31}}`
	_, solo := chaosServer(t, service.Config{Workers: 2})
	want := chaosRun(t, solo.URL, job)

	done := startChaosRun(coordBase, job)
	for deadline := time.Now().Add(30 * time.Second); scrapeMetric(t, coordBase, "qisimd_dist_units_done_total") < 1; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the fleet folded no unit in 30s")
		}
	}
	for _, p := range procs {
		if err := p.Process.Kill(); err != nil {
			t.Fatalf("SIGKILL worker: %v", err)
		}
	}
	if got := awaitChaosRun(t, done, 30*time.Second); !bytes.Equal(got, want) {
		t.Fatalf("result after the fleet's SIGKILL differs from standalone:\n%.200s\n%.200s", got, want)
	}
	if n := scrapeMetric(t, coordBase, `qisimd_fleet_workers{state="lost"}`); n != float64(len(procs)) {
		t.Fatalf(`qisimd_fleet_workers{state="lost"} = %v, want the %d killed workers`, n, len(procs))
	}
	if n := scrapeMetric(t, coordBase, "qisimd_dist_local_units_total"); n == 0 {
		t.Fatal("the local lane ran no unit after the fleet was lost")
	}
}

// TestFleetWorkerStartedBeforeCoordinatorMultiProcess starts a worker
// process 2 s before its coordinator. The worker keeps claiming until the
// coordinator answers, its first answered claim admits it, and it runs
// units of the next job.
func TestFleetWorkerStartedBeforeCoordinatorMultiProcess(t *testing.T) {
	f := newProcFleet(t)
	coordPort := f.freePort()
	coordBase := fmt.Sprintf("http://127.0.0.1:%d", coordPort)
	_, bases := f.workers(coordBase, 1)
	time.Sleep(2 * time.Second)
	f.coordinator(coordPort)
	waitJoined(t, coordBase, "proc-w0")

	job := `{"kind":"surface.mc","params":{"distance":3,"shots":6000,"shard_size":128,"seed":19}}`
	_, solo := chaosServer(t, service.Config{Workers: 2})
	if got, want := chaosRun(t, coordBase, job), chaosRun(t, solo.URL, job); !bytes.Equal(got, want) {
		t.Fatalf("fleet result differs from standalone:\n%s\n%s", got, want)
	}
	if n := scrapeMetric(t, bases[0], "qisimd_worker_units_total"); n == 0 {
		t.Fatal("the worker started before its coordinator executed no unit")
	}
	if n := scrapeMetric(t, coordBase, "qisimd_degraded_runs_total"); n != 0 {
		t.Fatalf("qisimd_degraded_runs_total = %v, want 0", n)
	}
}

// TestFleetCoordinatorSIGKILLMultiProcess SIGKILLs the -data-dir
// coordinator process once the job's checkpoint file exists and restarts
// it on the same port and data dir. The restarted coordinator recovers the
// journaled job and resumes it from the checkpoint the fleet lane wrote
// (qisimd_jobs_resumed_total), and /v1/results/<key> serves the bytes of
// an in-process standalone run.
func TestFleetCoordinatorSIGKILLMultiProcess(t *testing.T) {
	f := newProcFleet(t)
	coordPort := f.freePort()
	coordBase := fmt.Sprintf("http://127.0.0.1:%d", coordPort)
	coord := f.coordinator(coordPort)
	f.workers(coordBase, 2)
	waitJoined(t, coordBase, "proc-w0", "proc-w1")

	job := `{"kind":"surface.mc","params":{"distance":5,"shots":200000,"shard_size":256,"seed":29}}`
	_, solo := chaosServer(t, service.Config{Workers: 2})
	want := chaosRun(t, solo.URL, job)

	resp, err := http.Post(coordBase+"/v1/jobs", "application/json", strings.NewReader(job))
	if err != nil {
		t.Fatal(err)
	}
	var sr chaosSubmitResponse
	err = json.NewDecoder(resp.Body).Decode(&sr)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d, err %v", resp.StatusCode, err)
	}
	ckpt := filepath.Join(f.dir, "coord", "checkpoints", string(sr.Job.Key)+".qisnap")
	for deadline := time.Now().Add(30 * time.Second); ; time.Sleep(time.Millisecond) {
		if _, err := os.Stat(ckpt); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the fleet job never wrote its checkpoint")
		}
	}
	if err := coord.Process.Kill(); err != nil {
		t.Fatalf("SIGKILL coordinator: %v", err)
	}
	coord.Wait() //nolint:errcheck // killed
	f.coordinator(coordPort)

	var got []byte
	for deadline := time.Now().Add(60 * time.Second); got == nil; time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the recovered job never completed")
		}
		resp, err := http.Get(coordBase + "/v1/results/" + string(sr.Job.Key))
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err == nil && resp.StatusCode == http.StatusOK {
			got = body
		}
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("post-restart fleet result differs from standalone:\n%.200s\n%.200s", got, want)
	}
	resp, err = http.Get(coordBase + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metricsBody, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	resumed := 0.0
	for _, line := range strings.Split(string(metricsBody), "\n") {
		if v, ok := strings.CutPrefix(line, "qisimd_jobs_resumed_total "); ok {
			fmt.Sscan(v, &resumed) //nolint:errcheck
		}
	}
	if resumed < 1 {
		t.Fatalf("qisimd_jobs_resumed_total = %v after the restart, want >= 1", resumed)
	}
}
