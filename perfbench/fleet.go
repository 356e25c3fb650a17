package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"goldeneye"
	"goldeneye/internal/fleet"
	"goldeneye/internal/server"
	"goldeneye/internal/server/client"
	"goldeneye/internal/telemetry"
	"goldeneye/internal/zoo"
)

// Fleet workload geometry. A fresh job (32 samples, 32 injections, one
// 16-injection shard per node) takes about 0.33 s on a 2-vCPU Xeon, so a
// 20 s window holds about 60 fresh jobs: enough for a steady p50 and a
// p75 tail with ten samples beyond it. Traced runs there show the node
// shards spanning 99% of a job's latency (client, coordinator and node
// request handling add about 1 ms each) and tensor kernels taking about a
// third of the process CPU; the rest is per-job daemon set-up, format
// emulation, GC and HTTP, which the daemons do not break down. The repeat
// share is a choice, not a measured traffic mix: one job in four gives
// about 20 repeats per window for hit_s_p50, and repeats cause under 0.2%
// of the jobs' CPU time and count toward no end-to-end metric.
const (
	fleetNodes      = 2
	fleetSamples    = 32
	fleetInjections = 32
	hitEvery        = 4  // every hitEvery-th job resubmits a job from the history
	bootSamples     = 25 // boots timed per run; the median is setup_s
)

// fleetSpec is a fresh resnet_s job: bfp_e5m5 activations, value faults
// at layer 20, ranger on.
func fleetSpec(seed uint64) (*server.JobSpec, error) {
	f, err := goldeneye.ParseFormat(cnnDeep.format)
	if err != nil {
		return nil, err
	}
	return &server.JobSpec{
		Model:   cnnDeep.model,
		Samples: fleetSamples,
		Campaign: goldeneye.CampaignConfig{
			Format:     f,
			Assignment: &goldeneye.FormatAssignment{Default: goldeneye.RoleFormats{Activations: f}},
			Site:       goldeneye.SiteValue,
			Target:     goldeneye.TargetNeuron,
			Layer:      cnnDeep.layer,
			Injections: fleetInjections,
			Seed:       seed,
			BatchSize:  cnnDeep.batch,
			UseRanger:  true,
		},
	}, nil
}

// cluster is two in-process daemons behind a loopback fleet coordinator.
type cluster struct {
	nodes    []*server.Server
	nodeRegs []*telemetry.Registry
	coordReg *telemetry.Registry
	front    *fleet.Server
	https    []*http.Server // coordinator last, so shutdown drains it first
	coordTP  *http.Transport
	url      string
	nodeURLs []string
	boot     []time.Duration // server.New per node: journal replay included
}

// bootCluster starts the daemons over the journals and shared result
// cache in dir and returns once the coordinator answers /readyz.
func bootCluster(ctx context.Context, dir, zooDir string, tr *tracer) (*cluster, error) {
	c := &cluster{coordReg: telemetry.NewRegistry(), coordTP: newTransport()}
	serve := func(h http.Handler) (string, error) {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return "", err
		}
		hs := &http.Server{Handler: h}
		c.https = append(c.https, hs)
		go hs.Serve(ln) // returns http.ErrServerClosed at shutdown
		return "http://" + ln.Addr().String(), nil
	}
	for i := 0; i < fleetNodes; i++ {
		reg := telemetry.NewRegistry()
		start := time.Now()
		s, err := server.New(server.Options{
			Jobs:            1,
			CampaignWorkers: 1,
			CacheDir:        filepath.Join(dir, "cache"),
			JournalDir:      filepath.Join(dir, "node"+strconv.Itoa(i)),
			ZooDir:          zooDir,
			Registry:        reg,
		})
		if err != nil {
			c.shutdown()
			return nil, err
		}
		c.boot = append(c.boot, time.Since(start))
		c.nodes = append(c.nodes, s)
		c.nodeRegs = append(c.nodeRegs, reg)
		url, err := serve(tr.handler("node"+strconv.Itoa(i), s))
		if err != nil {
			c.shutdown()
			return nil, err
		}
		c.nodeURLs = append(c.nodeURLs, url)
	}
	coord, err := fleet.New(c.nodeURLs, fleet.Options{
		Shards:   fleetNodes,
		Registry: c.coordReg,
		Client:   client.Options{Transport: c.coordTP},
	})
	if err != nil {
		c.shutdown()
		return nil, err
	}
	c.front = fleet.Serve(coord, fleet.ServerOptions{})
	if c.url, err = serve(tr.handler("coord", c.front)); err != nil {
		c.shutdown()
		return nil, err
	}
	probe := client.NewWithOptions(c.url, client.Options{Transport: c.coordTP})
	for {
		err := probe.Ready(ctx)
		if err == nil {
			return c, nil
		}
		var nr *client.NotReadyError
		if !errors.As(err, &nr) || ctx.Err() != nil {
			c.shutdown()
			return nil, fmt.Errorf("coordinator not ready: %w", err)
		}
		time.Sleep(time.Millisecond)
	}
}

func newTransport() *http.Transport {
	return http.DefaultTransport.(*http.Transport).Clone()
}

// shutdown drains the coordinator, then the daemons, and waits for every
// server goroutine to return.
func (c *cluster) shutdown() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if c.front != nil {
		_ = c.front.Shutdown(ctx) // no fleet job is left running
	}
	for i := len(c.https) - 1; i >= 0; i-- {
		_ = c.https[i].Shutdown(ctx)
	}
	for _, s := range c.nodes {
		_ = s.Shutdown(ctx)
	}
	c.coordTP.CloseIdleConnections()
}

// fleetJob is one client job of the measured window.
type fleetJob struct {
	name   string
	hit    bool
	traced bool
	spec   *server.JobSpec
	lat    time.Duration
	cpu    time.Duration // process CPU time while the job ran
	alloc  uint64        // heap bytes allocated while the job ran
	rss    float64       // peak resident MiB while the job ran
	rep    *goldeneye.CampaignReport
	err    error
}

type fleetJobs struct{}

func (fleetJobs) run(ctx context.Context, e *env, tr *tracer) (*outcome, error) {
	if err := requireCached(e.zooDir, cnnDeep.model); err != nil {
		return nil, err
	}
	history, err := readHistory(e.histDir)
	if err != nil {
		return nil, err
	}
	// Set-up: boot the whole service over a pristine copy of the history,
	// several times; the last boot serves the window. A boot that restores
	// every journal record from the result cache writes nothing, so all
	// the boots of a run share one copy.
	dir, err := os.MkdirTemp(e.workDir, "svc")
	if err != nil {
		return nil, err
	}
	if err := copyTree(filepath.Join(e.histDir, "state"), dir); err != nil {
		return nil, err
	}
	var boots, replayed, news []float64
	var c *cluster
	for i := 0; i < bootSamples; i++ {
		runtime.GC() // the previous boot's garbage is not this boot's cost
		start := time.Now()
		c, err = bootCluster(ctx, dir, e.zooDir, tr)
		if err != nil {
			return nil, err
		}
		boots = append(boots, time.Since(start).Seconds())
		var newSum time.Duration
		var n, restored float64
		for k, reg := range c.nodeRegs {
			newSum += c.boot[k]
			n += counterSum(reg, server.MetricJournalReplayed)
			restored += counterSum(reg, telemetry.Label(server.MetricJournalReplayed, "outcome", "restored"))
		}
		news = append(news, newSum.Seconds())
		replayed = append(replayed, n)
		if restored != n {
			c.shutdown()
			return nil, fmt.Errorf("boot %d restored %g of %g journal records; the history must replay from the cache", i, restored, n)
		}
		if i < bootSamples-1 {
			c.shutdown()
		}
	}

	cliReg := telemetry.NewRegistry()
	cliTP := newTransport()
	var rt http.RoundTripper = cliTP
	if tr != nil {
		rt = transport{t: tr, base: cliTP}
	}
	cli := client.NewWithOptions(c.url, client.Options{Registry: cliReg, Transport: rt})
	rtReg := telemetry.NewRegistry()
	goldeneye.RegisterRuntimeCollectors(rtReg)
	before := snapshotAll(c)
	before["runtime"] = byName(rtReg.Snapshot())
	freeMemory()
	a := sample()
	var jobs []*fleetJob
	for i := 0; (time.Since(a.at) < e.window || i < 2*hitEvery) && ctx.Err() == nil; i++ {
		// A traced run alternates untraced and traced rounds of hitEvery
		// jobs, so the tracing overhead compares neighbours.
		j := &fleetJob{hit: i%hitEvery == hitEvery-1, traced: tr != nil && i/hitEvery%2 == 1}
		if j.hit {
			j.name = "hit-" + strconv.Itoa(i)
			j.spec = history[(e.seed+uint64(i/hitEvery))%uint64(len(history))]
		} else {
			j.name = "fresh-" + strconv.Itoa(i)
			if j.spec, err = fleetSpec(mix(e.seed, uint64(i))); err != nil {
				c.shutdown()
				return nil, err
			}
		}
		var root int64
		if j.traced {
			root = tr.beginJob(j.name)
		}
		if err := resetPeakRSS(); err != nil {
			c.shutdown()
			return nil, err
		}
		s0 := sample()
		j.rep, j.err = cli.Run(ctx, j.spec, nil)
		s1 := sample()
		j.lat, j.cpu, j.alloc = s1.at.Sub(s0.at), s1.cpu-s0.cpu, s1.alloc-s0.alloc
		if j.rss, err = peakRSS(); err != nil {
			c.shutdown()
			return nil, err
		}
		if j.traced {
			tr.add(root, 0, j.name, "client job", s0.at, 0)
			tr.endJob()
		}
		jobs = append(jobs, j)
	}
	b := sample()
	after := snapshotAll(c)
	after["runtime"] = byName(rtReg.Snapshot())
	c.shutdown()
	cliTP.CloseIdleConnections()
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}

	out := &outcome{}
	if err := checkFleet(ctx, e, jobs, out); err != nil {
		return nil, err
	}
	var plain, traced []*fleetJob
	var fresh, hits []float64
	var ok int
	var cpu, hitCPU time.Duration
	var alloc, hitAlloc uint64
	for _, j := range jobs {
		if j.err != nil {
			continue
		}
		ok++
		cpu += j.cpu
		alloc += j.alloc
		if j.hit {
			hits = append(hits, j.lat.Seconds())
			hitCPU += j.cpu
			hitAlloc += j.alloc
			continue
		}
		fresh = append(fresh, j.lat.Seconds())
		if j.traced {
			traced = append(traced, j)
		} else {
			plain = append(plain, j)
		}
	}
	if len(plain) == 0 || len(hits) == 0 || (tr != nil && len(traced) == 0) {
		return nil, fmt.Errorf("window too short: %d fresh and %d repeat jobs completed", len(fresh), len(hits))
	}
	window := b.at.Sub(a.at).Seconds()
	tailLine := `"job_s_tail":"too few samples"`
	if p, v, ok := tail(fresh); ok {
		tailLine = fmt.Sprintf(`"job_s_tail":%g,"tail_percentile":%g`, v, p)
	}
	tensorCPU := before.delta(after, "runtime", "goldeneye_tensor_matmul_seconds_total") +
		before.delta(after, "runtime", "goldeneye_tensor_im2col_seconds_total")
	fmt.Printf(`{"fleet":{"fresh_jobs":%d,"repeat_jobs":%d,%s,"hit_s_p50":%g,"jobs_per_s":%g,"failed_frac":%g,`+
		`"repeat_cpu_frac":%g,"repeat_alloc_frac":%g,"tensor_cpu_frac":%g}}`+"\n",
		len(fresh), len(hits), tailLine, median(hits), float64(ok)/window, float64(out.failed)/float64(out.attempted),
		hitCPU.Seconds()/cpu.Seconds(), float64(hitAlloc)/float64(alloc), tensorCPU/(b.cpu-a.cpu).Seconds())
	out.endToEnd = fleetEndToEnd(plain, boots)
	if tr != nil {
		out.tracedEndToEnd = fleetEndToEnd(traced, boots)
		injected := 0
		for _, j := range append(plain, traced...) {
			injected += j.spec.Campaign.Injections
		}
		fl := fleetLayers{spans: tr.snapshot(), jobs: jobs, before: before, after: after,
			client: cliReg, newS: news, replayed: replayed, a: a, b: b, injected: injected}
		out.perLayer = fl.metrics()
	}
	return out, nil
}

// fleetEndToEnd derives the end-to-end figures from fresh jobs: the
// repeated jobs, whose share of the traffic is a choice of this
// benchmark, count toward none of them. The rates are over the time the
// client spent in these jobs.
func fleetEndToEnd(fresh []*fleetJob, boots []float64) map[string]metric {
	var lat, rss []float64
	var busy, cpu time.Duration
	var alloc uint64
	injected := 0
	for _, j := range fresh {
		lat = append(lat, j.lat.Seconds())
		rss = append(rss, j.rss)
		busy += j.lat
		cpu += j.cpu
		alloc += j.alloc
		injected += j.spec.Campaign.Injections
	}
	inj := float64(injected)
	return map[string]metric{
		"setup_s":          {median(boots), "s"},
		"inj_per_s":        {inj / busy.Seconds(), "1/s"},
		"cpu_ms_per_inj":   {float64(cpu) / float64(time.Millisecond) / inj, "ms"},
		"alloc_kb_per_inj": {float64(alloc) / 1024 / inj, "KiB"},
		"max_rss_mb":       {median(rss), "MiB"},
		"job_s_p50":        {median(lat), "s"},
	}
}

// checkFleet compares every report with the in-process reference of its
// spec: RunCampaignParallel at one worker per shard, which is the fleet's
// byte-identity contract.
func checkFleet(ctx context.Context, e *env, jobs []*fleetJob, out *outcome) error {
	_, ds, err := zoo.PretrainedIn(e.zooDir, cnnDeep.model)
	if err != nil {
		return err
	}
	refs := map[uint64][]byte{} // by campaign seed: repeats share their history job's
	var mismatches, detected, aborted int
	for _, j := range jobs {
		out.attempted++
		if j.err != nil {
			out.failed++
			fmt.Printf("%s: %v\n", j.name, j.err)
			continue
		}
		ref, ok := refs[j.spec.Campaign.Seed]
		if !ok {
			n := min(j.spec.PoolSamples(), ds.ValLen())
			pool, err := goldeneye.NewEvalPool(ds.ValX.Slice(0, n), ds.ValY[:n], min(j.spec.EvalBatch, n))
			if err != nil {
				return err
			}
			cfg := j.spec.Campaign
			cfg.Pool = pool
			rep, err := goldeneye.RunCampaignParallel(ctx, cfg, fleetNodes, func() (*goldeneye.Simulator, error) {
				m, err := zoo.PretrainedOn(e.zooDir, cnnDeep.model, ds)
				if err != nil {
					return nil, err
				}
				return goldeneye.NewSimulator(m, ds.ValX.Slice(0, 1))
			})
			if err != nil {
				return fmt.Errorf("reference for %s: %w", j.name, err)
			}
			if ref, err = json.Marshal(rep); err != nil {
				return err
			}
			refs[j.spec.Campaign.Seed] = ref
		}
		got, err := json.Marshal(j.rep)
		if err != nil {
			return err
		}
		if !bytes.Equal(got, ref) {
			out.failed++
			fmt.Printf("%s: %v\n got %s\nwant %s\n", j.name, errWrongReport, got, ref)
		}
		mismatches += j.rep.Mismatches
		detected += j.rep.Detected
		aborted += j.rep.Aborted
	}
	fmt.Printf(`{"counts":{"jobs":%d,"mismatches":%d,"detected":%d,"aborted":%d}}`+"\n",
		len(jobs), mismatches, detected, aborted)
	return nil
}

// mix derives the i-th fresh job seed from the benchmark seed
// (splitmix64), far from the small seeds the history uses.
func mix(seed, i uint64) uint64 {
	z := seed*0x9E3779B97F4A7C15 + i + 1<<40
	z = (z ^ z>>30) * 0xBF58476D1CE4E5B9
	z = (z ^ z>>27) * 0x94D049BB133111EB
	return z ^ z>>31
}

// copyTree copies the regular files under src to dst.
func copyTree(src, dst string) error {
	return filepath.WalkDir(src, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if d.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(target, b, 0o644)
	})
}

func counterSum(reg *telemetry.Registry, prefix string) float64 {
	var n float64
	for _, m := range reg.Snapshot() {
		if inFamily(m.Name, prefix) {
			n += m.Value
		}
	}
	return n
}

// registries is a snapshot of every service-side registry, by role.
type registries map[string]map[string]telemetry.Metric

func snapshotAll(c *cluster) registries {
	r := registries{"coord": byName(c.coordReg.Snapshot())}
	for i, reg := range c.nodeRegs {
		r["node"+strconv.Itoa(i)] = byName(reg.Snapshot())
	}
	return r
}

// delta sums a metric family's growth across the nodes (role prefix
// "node") or on the coordinator ("coord").
func (r registries) delta(after registries, role, family string) float64 {
	var n float64
	for who, ms := range after {
		if !strings.HasPrefix(who, role) {
			continue
		}
		for name, m := range ms {
			if inFamily(name, family) {
				n += m.Value - r[who][name].Value
			}
		}
	}
	return n
}
