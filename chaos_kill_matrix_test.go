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
// manually through the same wire API a real worker uses. A final
// multi-process test SIGKILLs an actual qisimd worker process.
package qisim_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
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

// chaosRun submits one job over HTTP and polls it to completion.
func chaosRun(t *testing.T, base, body string) []byte {
	t.Helper()
	resp, err := http.Post(base+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var sr chaosSubmitResponse
	err = json.NewDecoder(resp.Body).Decode(&sr)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("decode submit: %v", err)
	}
	if resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusOK {
		t.Fatalf("submit: status %d", resp.StatusCode)
	}
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(base + "/v1/jobs/" + sr.Job.ID)
		if err != nil {
			t.Fatal(err)
		}
		var snap jobs.Snapshot
		err = json.NewDecoder(resp.Body).Decode(&snap)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("decode snapshot: %v", err)
		}
		switch snap.State {
		case jobs.StateDone:
			if snap.Status == nil || snap.Status.Truncated {
				t.Fatalf("job finished truncated: %+v", snap.Status)
			}
			return []byte(snap.Result)
		case jobs.StateFailed:
			t.Fatalf("job failed: %s: %s", snap.ErrorClass, snap.Error)
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatal("job did not finish")
	return nil
}

// startChaosWorkers launches n healthy dist.Workers over the wire API.
func startChaosWorkers(t *testing.T, base string, n int) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		id := fmt.Sprintf("healthy-%d", i)
		client := &dist.Client{Base: base}
		if err := client.Register(ctx, dist.WorkerInfo{ID: id}); err != nil {
			cancel()
			t.Fatalf("register %s: %v", id, err)
		}
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
}

// registerWorker announces a manual worker over the wire API. It must run
// BEFORE the job is submitted: admission checks for live workers, and a
// coordinator with zero registrations degrades to the local lane instead of
// granting leases.
func registerWorker(t *testing.T, base, id string) *dist.Client {
	t.Helper()
	client := &dist.Client{Base: base}
	if err := client.Register(context.Background(), dist.WorkerInfo{ID: id}); err != nil {
		t.Fatalf("register %s: %v", id, err)
	}
	return client
}

// claimOneUnit polls the wire API until the coordinator hands the manual
// worker a lease (the job is submitted concurrently).
func claimOneUnit(t *testing.T, client *dist.Client, id string) *dist.LeaseGrant {
	t.Helper()
	deadline := time.Now().Add(20 * time.Second)
	for time.Now().Before(deadline) {
		g, err := client.Claim(context.Background(), id, "")
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
				done := make(chan []byte, 1)
				go func() { done <- chaosRun(t, ts.URL, job.body) }()
				claimOneUnit(t, doomed, "doomed")
				// Only now do the healthy workers join; one of them must
				// pick up the expired lease's requeue.
				startChaosWorkers(t, ts.URL, 2)
				got := <-done
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
				done := make(chan []byte, 1)
				go func() { done <- chaosRun(t, ts.URL, job.body) }()
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
							err := client.Renew(context.Background(), "slow", g.Key, g.Start, g.End, nil)
							if errors.Is(err, dist.ErrGone) {
								return // hedge winner reported; lease resolved
							}
						}
					}
				}()
				startChaosWorkers(t, ts.URL, 2)
				got := <-done
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

// TestFleetSIGKILLMultiProcess runs the real binary: a coordinator qisimd,
// three worker qisimd processes, one of which is SIGKILLed while the job
// runs. The surviving fleet must finish with bytes identical to an
// in-process standalone run.
func TestFleetSIGKILLMultiProcess(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process fleet test skipped in -short mode")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "qisimd")
	build := exec.Command("go", "build", "-o", bin, "./cmd/qisimd")
	build.Dir = "."
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build qisimd: %v\n%s", err, out)
	}

	freePort := func() int {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer l.Close()
		return l.Addr().(*net.TCPAddr).Port
	}
	waitReady := func(base string) {
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
		t.Fatalf("%s never became healthy", base)
	}

	var procs []*exec.Cmd
	killAll := func() {
		for _, p := range procs {
			if p.Process != nil {
				p.Process.Kill() //nolint:errcheck
			}
		}
		for _, p := range procs {
			p.Wait() //nolint:errcheck
		}
	}
	t.Cleanup(killAll)
	spawn := func(args ...string) *exec.Cmd {
		cmd := exec.Command(bin, args...)
		cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
		if err := cmd.Start(); err != nil {
			t.Fatalf("start %v: %v", args, err)
		}
		procs = append(procs, cmd)
		return cmd
	}

	coordPort := freePort()
	coordBase := fmt.Sprintf("http://127.0.0.1:%d", coordPort)
	spawn("-addr", fmt.Sprintf("127.0.0.1:%d", coordPort), "-role", "coordinator",
		"-lease-ttl", "300ms", "-unit-shards", "2", "-workers", "2",
		"-data-dir", filepath.Join(dir, "coord"), "-log-level", "warn")
	waitReady(coordBase)

	var victim *exec.Cmd
	for i := 0; i < 3; i++ {
		p := freePort()
		base := fmt.Sprintf("http://127.0.0.1:%d", p)
		cmd := spawn("-addr", fmt.Sprintf("127.0.0.1:%d", p), "-role", "worker",
			"-coordinator-url", coordBase, "-worker-id", fmt.Sprintf("proc-w%d", i),
			"-advertise", base, "-workers", "2", "-log-level", "warn")
		waitReady(base)
		if i == 0 {
			victim = cmd
		}
	}

	job := `{"kind":"surface.mc","params":{"distance":3,"shots":6000,"shard_size":128,"seed":17}}`
	_, solo := chaosServer(t, service.Config{Workers: 2})
	want := chaosRun(t, solo.URL, job)

	done := make(chan []byte, 1)
	go func() { done <- chaosRun(t, coordBase, job) }()
	// SIGKILL one worker while the fleet is (very likely) mid-job. Whether
	// or not it held a lease at that instant, the survivors must converge
	// on the identical bytes.
	time.Sleep(150 * time.Millisecond)
	if err := victim.Process.Kill(); err != nil {
		t.Fatalf("SIGKILL victim: %v", err)
	}
	got := <-done
	if !bytes.Equal(got, want) {
		t.Fatalf("post-SIGKILL fleet result differs from standalone:\n%s\n%s", got, want)
	}
}
