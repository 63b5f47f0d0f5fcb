package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"iter"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync/atomic"
	"time"

	"sheriff"
	"sheriff/client"
	"sheriff/internal/aggregate"
	"sheriff/internal/core"
	"sheriff/internal/geo"
	"sheriff/internal/replica"
	"sheriff/internal/store"
)

type runConfig struct {
	workload workload
	// seed draws the inputs: the crowd and every check it sends.
	seed int64
	// worldSeed builds the simulated world the checks and the crawl
	// reach; runs use defaultWorldSeed.
	worldSeed int64
	seconds   int
	traced    bool
	dir       string
	tamper    tamper
}

// tamper corrupts one output on purpose, so the tests can show that the
// matching check catches it. Real runs leave it zero.
type tamper struct {
	// vpPrice moves one vantage point's price in the first check's answer
	// by a minor unit.
	vpPrice bool
	// dropCrawlRow loses one crawl row on its way into the store.
	dropCrawlRow bool
	// dropExportRow skips one row of the first export.
	dropExportRow bool
	// flipFollowerByte flips one byte of one row the first follower applies.
	flipFollowerByte bool
}

// measurements are the raw numbers of one pass over the pipeline.
type measurements struct {
	// Every timed operation is timed twice: wall time, which the run
	// report shows, and the process's CPU time, which the gated metrics
	// use (see endToEnd).
	setups, setupCPU []time.Duration

	checks, checkFailed int
	latencies           []time.Duration
	rounds              []roundStat
	crowdMem            memSnap
	cacheHits, cacheAll uint64
	events              int
	anchorChecks        int

	fetches, fetchFailed int
	crawlRates           []float64
	crawlCPU             time.Duration
	crawlMem             memSnap
	autoCheckpoints      uint64

	heap           uint64
	rows           int
	walBytes       int64
	walRows        int
	checkpoints    []time.Duration
	checkpointCPU  []time.Duration
	snapshotBytes  int64
	diskBytes      int64
	restarts       []time.Duration
	restartCPU     []time.Duration
	exports        []time.Duration
	exportCPU      []time.Duration
	exportMallocs  []float64
	catchups       []time.Duration
	catchupCPU     []time.Duration
	recovers       []time.Duration
	recoverMallocs []float64
	rebuilds       []time.Duration
	exportDecode   time.Duration // per 1K rows, traced passes only
	checkParse     time.Duration // per check, traced passes only
	checkDerive    time.Duration
	checkExtract   time.Duration
	fetchParse     time.Duration // per fetch, traced passes only
	fetchExtract   time.Duration
	clientCallTime time.Duration

	ops    map[string]opCount
	fail   failures
	inputs map[string]any
	// stages is the wall time of each stage of the pass, for the report.
	stages  map[string]float64
	lastLap time.Time
}

// lap charges the time since the previous lap to stage.
func (m *measurements) lap(stage string) {
	now := time.Now()
	m.stages[stage] += now.Sub(m.lastLap).Seconds()
	m.lastLap = now
}

func (m *measurements) op(name string, attempted, failed int) {
	c := m.ops[name]
	c.Attempted += attempted
	c.Failed += failed
	m.ops[name] = c
}

// execute runs the workload once untraced; with tracing, it runs it again
// traced on the same seed and reports the per-layer split and the
// tracer's overhead.
func execute(cfg runConfig) (result, error) {
	if !cfg.traced {
		m, err := runPass(cfg, nil, true)
		if err != nil {
			return result{}, err
		}
		res := finish(cfg, m, endToEnd(m), nil)
		res.report.Wall = wallClock(m)
		return res, nil
	}
	// The untraced pass is for the overhead and the runtime counters; it
	// skips the archive operations, which the traced pass times by layer.
	plain, err := runPass(cfg, nil, false)
	if err != nil {
		return result{}, err
	}
	tr := newTracer()
	traced, err := runPass(cfg, tr, true)
	if err != nil {
		return result{}, err
	}
	res := finish(cfg, traced, perLayer(plain, traced, tr), tr)
	res.correct = res.correct && plain.fail.n == 0
	res.checkFailures = append(res.checkFailures, plain.fail.msgs...)
	for _, c := range plain.ops {
		res.attempted += c.Attempted
		res.failed += c.Failed
	}
	return res, nil
}

// overhead is how much more CPU time the traced pass took, in percent.
func overhead(plain, traced float64) float64 { return (traced - plain) / plain * 100 }

// cpuPerCheck is the median over rounds of process CPU time per check,
// in ms.
func cpuPerCheck(m *measurements) float64 {
	return median(perRound(m.rounds, func(r roundStat) float64 { return float64(r.cpu) / 1e6 / float64(r.checks) }))
}

// cpuPerFetch is the crawl's process CPU time per fetch, in µs.
func cpuPerFetch(m *measurements) float64 { return float64(m.crawlCPU) / 1e3 / float64(m.fetches) }

// checksPerS is the median over rounds of checks ÷ round wall time.
func checksPerS(m *measurements) float64 {
	return median(perRound(m.rounds, func(r roundStat) float64 { return float64(r.checks) / r.wall.Seconds() }))
}

// fetchesPerS is the median over the crawl's slices of rows stored per
// second.
func fetchesPerS(m *measurements) float64 { return median(m.crawlRates) }

func finish(cfg runConfig, m *measurements, metrics map[string]metric, tr *tracer) result {
	res := result{
		correct: m.fail.n == 0, metrics: metrics, trace: tr,
		checkFailures: m.fail.msgs,
		report: runReport{Workload: cfg.workload.name, Seed: cfg.seed, Seconds: cfg.seconds,
			Traced: cfg.traced, Operations: m.ops, Inputs: m.inputs, Stages: m.stages},
	}
	for _, c := range m.ops {
		res.attempted += c.Attempted
		res.failed += c.Failed
	}
	return res
}

// runPass is one pass over the pipeline: set-up, crowd checks, crawl,
// verification and, withArchive, the archive operations.
func runPass(cfg runConfig, tr *tracer, withArchive bool) (*measurements, error) {
	w := cfg.workload
	m := &measurements{ops: map[string]opCount{}, stages: map[string]float64{}, lastLap: time.Now()}
	pass := "plain"
	if tr != nil {
		pass = "traced"
	}
	base := filepath.Join(cfg.dir, pass)
	defer os.RemoveAll(base)
	opts := nodeOptions{seed: cfg.worldSeed, longTail: w.longTail, fsync: w.fsync, tracer: tr, traceWorld: true,
		dropCrawlRow: cfg.tamper.dropCrawlRow}

	// Set-up: open a fresh data dir, build the world, start the server,
	// until readyz answers. Timed `setups` times; the last node stays up.
	var n *node
	for i := 0; i < w.setups; i++ {
		if n != nil {
			if err := n.stop(); err != nil {
				return nil, err
			}
		}
		runtime.GC()
		t0, c0 := time.Now(), cpuTime()
		var err error
		n, err = startNode(filepath.Join(base, fmt.Sprintf("data-%d", i)), opts)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		m.setups = append(m.setups, time.Since(t0))
		m.setupCPU = append(m.setupCPU, cpuTime()-c0)
	}
	m.lap("setup")
	running := n
	defer func() {
		if running != nil {
			running.stop()
		}
	}()

	ctx := context.Background()
	rng := rand.New(rand.NewSource(cfg.seed))
	users, err := makeUsers(rng, w.users)
	if err != nil {
		return nil, err
	}
	crowdStart := n.world.Clock.Now()
	checks, skipped := makeChecks(rng, n.world, users, w, w.checkCount(cfg.seconds), crowdStart)
	m.inputs = map[string]any{
		"world_seed": cfg.worldSeed, "long_tail": w.longTail, "popular_retailers": len(n.world.Interesting),
		"users": w.users, "checks": len(checks), "checks_per_round": w.perRound,
		"rounds": (len(checks) + w.perRound - 1) / w.perRound, "popular_share": w.share,
		"hot_products": w.hotProducts, "skipped_duplicate_highlight": skipped, "clients": 1,
		"fsync": w.fsync.String(), "archive_fsync": store.FsyncInterval.String(), "failure_injection": false,
		"crawl_retailers": len(n.world.Crawled), "crawl_products": w.crawlProducts,
		"crawl_rounds": w.crawlRounds, "vantage_points": len(geo.VantagePoints()),
		"setups": w.setups, "archive_rounds": w.reps,
	}

	m.lap("generate")

	// Crowd phase: closed-loop checks over the SDK.
	sdk, sdkTransport := newSDK(n.url, tr != nil)
	defer sdkTransport.CloseIdleConnections()
	var onCall func(int, time.Time, time.Time)
	if tr != nil {
		onCall = func(op int, start, end time.Time) {
			tr.add(span{Name: "client", Op: op, Parent: -1, Start: tr.ns(start), End: tr.ns(end), Key: checks[op].req.URL})
		}
	}
	var outs []checkOutcome
	h0, miss0 := n.world.Backend.PageCacheStats()
	ev0 := n.world.Analysis.Events().Len()
	runtime.GC()
	err = phase(tr, "crowd", func() error {
		mem0 := readMem()
		outs, m.rounds = runChecks(ctx, sdk, n.world, checks, onCall)
		m.crowdMem = readMem().sub(mem0)
		return nil
	})
	if err != nil {
		return nil, err
	}
	m.lap("crowd")
	h1, miss1 := n.world.Backend.PageCacheStats()
	m.cacheHits, m.cacheAll = h1-h0, (h1-h0)+(miss1-miss0)
	m.events = int(n.world.Analysis.Events().Len() - ev0)
	m.checks = len(checks)
	if cfg.tamper.vpPrice {
		for j, p := range outs[0].res.Prices {
			if p.OK {
				outs[0].res.Prices[j].PriceUnits++
				break
			}
		}
	}
	for i, o := range outs {
		m.latencies = append(m.latencies, o.latency)
		m.clientCallTime += o.latency
		if o.err != nil {
			m.checkFailed++
			m.fail.addf("check %s failed: %v", checks[i].req.URL, o.err)
			continue
		}
		verifyCheck(&m.fail, n.world, checks[i], o)
	}
	m.op("checks", len(checks), m.checkFailed)
	m.lap("verify")

	// The crawl and the archive operations run at fsync=interval on every
	// workload, so they weigh the same everywhere and do not follow the
	// disk's fsync latency: a workload whose checks ran at another policy
	// hands its data dir over, as an operator restarting sheriffd with
	// another -fsync would, after its aggregates are checked.
	if w.fsync != store.FsyncInterval {
		if err := verifyReports(ctx, &m.fail, sdk, n.durable, n.world.Market); err != nil {
			return nil, err
		}
		running = nil
		opts.fsync = store.FsyncInterval
		if n, err = reopen(n, opts); err != nil {
			return nil, err
		}
		running = n
		sdk, sdkTransport = newSDK(n.url, false)
		defer sdkTransport.CloseIdleConnections()
		m.lap("reopen")
	}

	// Crawl phase: the 21 crawled retailers with the anchors the checks
	// taught; a retailer no check reached is taught by one more check, as
	// cmd/crawl does.
	for _, d := range n.world.Crawled {
		if _, ok := n.world.Backend.Anchor(d); !ok {
			m.anchorChecks++
		}
	}
	if err := n.world.EnsureAnchors(n.world.Crawled); err != nil {
		return nil, fmt.Errorf("anchor learning: %w", err)
	}
	m.op("anchor_checks", m.anchorChecks, 0)
	// The crawl starts on a fresh generation, so the automatic
	// compactions that land inside it (each pauses every writer) are set
	// by the crawl's own rows, not by how many bytes the checks left in
	// the log, which varies with the seed.
	if err := n.durable.Compact(); err != nil {
		m.op("checkpoint", 1, 1)
		return nil, fmt.Errorf("checkpoint before the crawl: %w", err)
	}
	m.op("checkpoint", 1, 0)
	anchors := n.world.Backend.Anchors()
	crawlStart := n.world.Clock.Now()
	gen0 := n.durable.Stats().Generation
	runtime.GC()
	var crawlRep *sheriff.CrawlReport
	err = phase(tr, "crawl", func() error {
		mem0 := readMem()
		stop := sampleRate(n.durable.Len, crawlSlice)
		c0 := cpuTime()
		var err error
		crawlRep, err = n.world.RunCrawl(core.CrawlOptions{MaxProducts: w.crawlProducts, Rounds: w.crawlRounds})
		m.crawlCPU = cpuTime() - c0
		m.crawlRates = stop()
		m.crawlMem = readMem().sub(mem0)
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("crawl: %w", err)
	}
	m.lap("crawl")
	m.autoCheckpoints = n.durable.Stats().Generation - gen0
	for _, p := range crawlRep.ProductsPerDomain {
		m.fetches += p * w.crawlRounds * len(geo.VantagePoints())
	}
	m.heap = liveHeap()

	m.fetchFailed = verifyCrawl(&m.fail, n.world, n.durable, crawlStart, w.crawlProducts, w.crawlRounds)
	m.op("fetches", m.fetches, m.fetchFailed)
	if want := (len(checks)-m.checkFailed+m.anchorChecks)*len(geo.VantagePoints()) + m.fetches; n.durable.Len() != want {
		m.fail.addf("store holds %d rows, want %d", n.durable.Len(), want)
	}
	if err := verifyReports(ctx, &m.fail, sdk, n.durable, n.world.Market); err != nil {
		return nil, err
	}

	m.lap("verify")
	if tr != nil {
		opURL := map[int]string{}
		for i, c := range checks {
			opURL[i] = c.req.URL
		}
		tr.link(opURL)
		if m.checkParse, m.checkDerive, m.checkExtract, err = replayCheckPages(tr.plain, users, checks, outs); err != nil {
			return nil, fmt.Errorf("replay checks: %w", err)
		}
		if m.fetchParse, m.fetchExtract, err = replayCrawlPages(tr.plain, n.durable, anchors); err != nil {
			return nil, fmt.Errorf("replay crawl: %w", err)
		}
	}

	m.lap("replay")
	if !withArchive {
		return m, nil
	}
	running = nil
	return m, archive(ctx, cfg, n, m, tr, base)
}

// reopen stops n and serves its data dir again under opts, with the
// anchors the checks taught (cmd/crawl's anchor sidecar) and the simulated
// clock where the checks left it.
func reopen(n *node, opts nodeOptions) (*node, error) {
	var anchors bytes.Buffer
	if err := n.world.Backend.SaveAnchors(&anchors); err != nil {
		n.stop()
		return nil, err
	}
	now := n.world.Clock.Now()
	if err := n.stop(); err != nil {
		return nil, err
	}
	r, err := startNode(n.dir, opts)
	if err != nil {
		return nil, fmt.Errorf("reopen: %w", err)
	}
	r.world.Clock.Set(now)
	if err := r.world.Backend.LoadAnchors(&anchors); err != nil {
		r.stop()
		return nil, err
	}
	return r, nil
}

// phase runs fn, as a traced window when tracing.
func phase(tr *tracer, name string, fn func() error) error {
	if tr == nil {
		return fn()
	}
	return tr.phase(name, fn)
}

// archive runs the operator's operations on the dataset the pass built.
// A final explicit checkpoint settles the data dir; then each of w.reps
// rounds restarts an unchanged copy of it, checkpoints it, exports it in
// full as NDJSON and catches a fresh follower up from it. Taking one
// sample of each operation per round spreads each operation's samples
// over the whole phase, so a slow spell of the shared host moves one
// sample of each rather than every sample of one. n is stopped.
func archive(ctx context.Context, cfg runConfig, n *node, m *measurements, tr *tracer, base string) error {
	w := cfg.workload
	d := n.durable
	st := d.Stats()
	m.rows = d.Len()
	m.walBytes, m.walRows = st.WALBytes, m.rows-int(st.SnapshotRows)
	if err := d.Compact(); err != nil {
		m.op("checkpoint", 1, 1)
		n.stop()
		return fmt.Errorf("checkpoint: %w", err)
	}
	m.op("checkpoint", 1, 0)
	m.snapshotBytes = d.Stats().SnapshotBytes
	want, err := hashJSONL(d.WriteJSONL)
	if err != nil {
		n.stop()
		return err
	}
	// From here on n is not used: the stopped server's dataset must not
	// stay live under the timings that follow, as it would not in a
	// restarted process.
	dir, market := n.dir, n.world.Market
	if err := n.stop(); err != nil {
		return err
	}
	if m.diskBytes, err = dirBytes(dir); err != nil {
		return err
	}
	if tr != nil {
		// Recovery and aggregate rebuild by layer.
		for i := 0; i < w.reps; i++ {
			runtime.GC()
			mem0, t0 := readMem(), time.Now()
			st, _, err := store.OpenReadOnly(dir)
			if err != nil {
				return fmt.Errorf("open read-only: %w", err)
			}
			t1, mem1 := time.Now(), readMem()
			aggregate.NewReader(st, market, aggregate.Options{})
			m.rebuilds = append(m.rebuilds, time.Since(t1))
			m.recovers = append(m.recovers, t1.Sub(t0))
			m.recoverMallocs = append(m.recoverMallocs, float64(mem1.sub(mem0).mallocs))
		}
		m.lap("recover")
	}
	opts := nodeOptions{seed: cfg.worldSeed, longTail: w.longTail, fsync: store.FsyncInterval, tracer: tr}
	for i := 0; i < w.reps; i++ {
		if err := archiveRound(ctx, cfg, i, dir, want, opts, m, tr, base); err != nil {
			return err
		}
	}
	return nil
}

// archiveRound is one round of archive: restart on a copy of dir, then a
// checkpoint, an export and a catch-up served by the restarted node. The
// first round also checks the restarted store, one export row by row and
// the follower's copy, untimed.
func archiveRound(ctx context.Context, cfg runConfig, i int, dir, want string, opts nodeOptions, m *measurements, tr *tracer, base string) error {
	copied := filepath.Join(base, fmt.Sprintf("restart-%d", i))
	if err := copyDir(dir, copied); err != nil {
		return err
	}
	defer os.RemoveAll(copied)
	runtime.GC()
	t0, c0 := time.Now(), cpuTime()
	r, err := startNode(copied, opts)
	if err != nil {
		m.op("restart", 1, 1)
		return fmt.Errorf("restart: %w", err)
	}
	m.restarts = append(m.restarts, time.Since(t0))
	m.restartCPU = append(m.restartCPU, cpuTime()-c0)
	m.op("restart", 1, 0)
	defer r.stop()
	sdk, sdkTransport := newSDK(r.url, false)
	defer sdkTransport.CloseIdleConnections()
	if i == 0 {
		if got, err := hashJSONL(r.durable.WriteJSONL); err != nil {
			return err
		} else if got != want {
			m.fail.addf("restarted store's JSONL differs from the store before the restart")
		}
		if err := export(ctx, sdk, r.durable, m, true, cfg.tamper.dropExportRow); err != nil {
			return err
		}
		if tr != nil {
			if m.exportDecode, err = replayExportDecode(r.url, r.durable); err != nil {
				return err
			}
		}
	}
	m.lap("restart")

	// Every checkpoint rewrites the whole snapshot, so each round's repeats
	// the same work.
	runtime.GC()
	t0, c0 = time.Now(), cpuTime()
	err = r.durable.Compact()
	m.checkpoints = append(m.checkpoints, time.Since(t0))
	m.checkpointCPU = append(m.checkpointCPU, cpuTime()-c0)
	if err != nil {
		m.op("checkpoint", 1, 1)
		return fmt.Errorf("checkpoint: %w", err)
	}
	m.op("checkpoint", 1, 0)
	m.lap("checkpoint")

	if err := phase(tr, "export", func() error { return export(ctx, sdk, r.durable, m, false, false) }); err != nil {
		return err
	}
	m.lap("export")

	err = phase(tr, "catchup", func() error {
		runtime.GC()
		fst := store.New()
		var target replica.Target = fst
		if tr != nil {
			target = tracedTarget{fst, tr}
		}
		if cfg.tamper.flipFollowerByte && i == 0 {
			target = &flipTarget{Store: fst}
		}
		hc := &http.Client{Transport: &http.Transport{}}
		f := replica.New(r.url, target, replica.Options{Client: hc})
		t0, c0 := time.Now(), cpuTime()
		err := f.CatchUp(ctx)
		m.catchups = append(m.catchups, time.Since(t0))
		m.catchupCPU = append(m.catchupCPU, cpuTime()-c0)
		hc.CloseIdleConnections()
		if err != nil {
			m.op("catchup", 1, 1)
			return fmt.Errorf("catch-up: %w", err)
		}
		m.op("catchup", 1, 0)
		if i == 0 {
			got, err := hashJSONL(fst.WriteJSONL)
			if err != nil {
				return err
			}
			if got != want {
				m.fail.addf("follower's JSONL differs from the primary's")
			}
		}
		return nil
	})
	m.lap("catchup")
	return err
}

// export streams every row of the served store as NDJSON through the
// SDK. With verify it checks every row against the store's own rows,
// pulled one at a time in sequence order, and is not timed (drop loses
// one row on the way, for the tests); otherwise it decodes and counts,
// and is timed, so the check's cost is not in the metric.
func export(ctx context.Context, sdk *client.Client, st store.Reader, m *measurements, verify, drop bool) error {
	next, stop := func() (sheriff.Observation, bool) { return sheriff.Observation{}, true }, func() {}
	if verify {
		next, stop = iter.Pull(st.Scan(store.Query{Round: -1}))
	}
	defer stop()
	runtime.GC()
	mem0, t0, c0 := readMem(), time.Now(), cpuTime()
	k, bad := 0, false
	for o, err := range sdk.StreamObservations(ctx, client.ObservationsQuery{}) {
		if err != nil {
			m.op("export", 1, 1)
			return fmt.Errorf("export: %w", err)
		}
		if drop && k == m.rows/2 {
			drop = false
			continue
		}
		if want, ok := next(); !ok || (verify && !sameObservation(o, want)) {
			bad = true
		}
		k++
	}
	if !verify {
		m.exports = append(m.exports, time.Since(t0))
		m.exportCPU = append(m.exportCPU, cpuTime()-c0)
		m.exportMallocs = append(m.exportMallocs, float64(readMem().sub(mem0).mallocs))
	}
	m.op("export", 1, 0)
	if bad || k != m.rows {
		m.fail.addf("export yielded %d rows, want the store's %d in sequence order", k, m.rows)
	}
	return nil
}

// replayExportDecode fetches the NDJSON export once and times the
// benchmark's own decode and check of it per 1,000 rows.
func replayExportDecode(url string, st store.Reader) (time.Duration, error) {
	req, err := http.NewRequest(http.MethodGet, url+"/api/v1/observations", nil)
	if err != nil {
		return 0, err
	}
	req.Header.Set("Accept", "application/x-ndjson")
	hc := &http.Client{Transport: &http.Transport{}}
	defer hc.CloseIdleConnections()
	resp, err := hc.Do(req)
	if err != nil {
		return 0, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return 0, err
	}
	var passes []time.Duration
	for p := 0; p < replayPasses; p++ {
		t0 := time.Now()
		next, stop := iter.Pull(st.Scan(store.Query{Round: -1}))
		dec := json.NewDecoder(bytes.NewReader(body))
		for k := 0; ; k++ {
			var o sheriff.Observation
			if err := dec.Decode(&o); err == io.EOF {
				break
			} else if err != nil {
				stop()
				return 0, err
			}
			if want, ok := next(); !ok || !sameObservation(o, want) {
				stop()
				return 0, fmt.Errorf("replayed export differs at row %d", k)
			}
		}
		stop()
		passes = append(passes, time.Since(t0))
	}
	return medianDur(passes) * 1000 / time.Duration(max(1, st.Len())), nil
}

// endToEnd is the gated metrics. Every time among them is the process's
// CPU time (user + system, load generator included) of the operation:
// the VM the benchmark is tuned on loses 10-45 % of each vCPU to the
// host (steal time in /proc/stat), varying from second to second, and
// the guest kernel leaves steal out of a process's CPU time but not out
// of wall time. Wall times are in the run report (wallClock).
func endToEnd(m *measurements) map[string]metric {
	us := func(d time.Duration) float64 { return float64(d) / 1e3 }
	secs := func(d time.Duration) float64 { return d.Seconds() }
	rows := float64(m.rows)
	return map[string]metric{
		"setup_s":                {secs(medianDur(m.setupCPU)), "s"},
		"cpu_ms_per_check":       {cpuPerCheck(m), "ms"},
		"crawl_cpu_us_per_fetch": {cpuPerFetch(m), "us"},
		"checkpoint_cpu_s":       {secs(medianDur(m.checkpointCPU)), "s"},
		"restart_cpu_s":          {secs(medianDur(m.restartCPU)), "s"},
		"export_cpu_us_per_row":  {us(medianDur(m.exportCPU)) / rows, "us"},
		"catchup_cpu_us_per_row": {us(medianDur(m.catchupCPU)) / rows, "us"},
		"live_heap_mb":           {float64(m.heap) / 1e6, "MB"},
		"disk_bytes_per_row":     {float64(m.diskBytes) / rows, "B"},
	}
}

// wallClock is the same operations in wall time, as a user waits for
// them; the run report shows them, ungated (see endToEnd).
func wallClock(m *measurements) map[string]metric {
	ms := func(d time.Duration) float64 { return float64(d) / 1e6 }
	secs := func(d time.Duration) float64 { return d.Seconds() }
	return map[string]metric{
		"setup_s":             {secs(medianDur(m.setups)), "s"},
		"checks_per_s":        {checksPerS(m), "1/s"},
		"check_p50_ms":        {ms(percentile(m.latencies, 50)), "ms"},
		"check_p99_ms":        {ms(blockP99(m.latencies)), "ms"},
		"crawl_fetches_per_s": {fetchesPerS(m), "1/s"},
		"checkpoint_s":        {secs(medianDur(m.checkpoints)), "s"},
		"restart_s":           {secs(medianDur(m.restarts)), "s"},
		"export_rows_per_s":   {float64(m.rows) / medianDur(m.exports).Seconds(), "rows/s"},
		"catchup_rows_per_s":  {float64(m.rows) / medianDur(m.catchups).Seconds(), "rows/s"},
	}
}

// perLayer derives the per-layer metrics: span sums from the traced pass,
// runtime counters from the untraced one (tracing allocates).
func perLayer(plain, m *measurements, tr *tracer) map[string]metric {
	us := func(d time.Duration) float64 { return float64(d) / 1e3 }
	checks, fetches := float64(m.checks), float64(m.fetches)
	rows, reps := float64(m.rows), float64(len(m.exports))
	isPath := func(p string) func(span) bool {
		return func(s span) bool { return strings.HasSuffix(s.Key, p) }
	}
	apiChecks, _ := tr.sum("crowd", "api", isPath("/api/v1/checks"))
	shopCrowd, pagesCrowd := tr.sum("crowd", "shop", nil)
	foldCrowd, _ := tr.sum("crowd", "aggregate.fold", nil)
	shopCrawl, _ := tr.sum("crawl", "shop", nil)
	foldCrawl, foldBatches := tr.sum("crawl", "aggregate.fold", nil)
	addCrowd, _ := tr.selfTime("crowd", "store.add_all", "aggregate.fold")
	addCrawl, addBatches := tr.selfTime("crawl", "store.add_all", "aggregate.fold")
	exportServe, _ := tr.sum("export", "api", isPath("/api/v1/observations"))
	replServe, _ := tr.sum("catchup", "api", isPath("/api/v1/replication/wal"))
	apply, _ := tr.sum("catchup", "replica.apply", nil)
	perRow := func(d time.Duration) float64 { return us(d) / reps / rows * 1000 }
	return map[string]metric{
		"check_p99_ms":                              {float64(blockP99(plain.latencies)) / 1e6, "ms"},
		"client.us_per_check":                       {us(m.clientCallTime-apiChecks) / checks, "us"},
		"api.serve_us_per_check":                    {us(apiChecks) / checks, "us"},
		"shop.render_us_per_check":                  {us(shopCrowd) / checks, "us"},
		"shop.pages_per_check":                      {float64(pagesCrowd) / checks, "count"},
		"backend.page_cache_hit_ratio":              {float64(m.cacheHits) / float64(max(1, m.cacheAll)), "ratio"},
		"htmlx.parse_us_per_check":                  {us(m.checkParse), "us"},
		"extract.derive_us_per_check":               {us(m.checkDerive), "us"},
		"extract.extract_us_per_check":              {us(m.checkExtract), "us"},
		"store.add_all_us_per_check":                {us(addCrowd) / checks, "us"},
		"store.wal_bytes_per_row":                   {float64(m.walBytes) / float64(max(1, m.walRows)), "B"},
		"aggregate.fold_us_per_check":               {us(foldCrowd) / checks, "us"},
		"events.per_1k_checks":                      {float64(m.events) * 1000 / checks, "count"},
		"runtime.allocs_per_check":                  {float64(plain.crowdMem.mallocs) / checks, "count"},
		"runtime.gc_cycles_per_1k_checks":           {float64(plain.crowdMem.numGC) * 1000 / checks, "count"},
		"runtime.gc_pause_us_per_check":             {float64(plain.crowdMem.pauseNs) / 1e3 / checks, "us"},
		"crawler.fetches":                           {fetches, "count"},
		"shop.render_us_per_fetch":                  {us(shopCrawl) / fetches, "us"},
		"htmlx.parse_us_per_fetch":                  {us(m.fetchParse), "us"},
		"extract.extract_us_per_fetch":              {us(m.fetchExtract), "us"},
		"store.add_all_us_per_batch":                {us(addCrawl) / float64(max(1, addBatches)), "us"},
		"aggregate.fold_us_per_batch":               {us(foldCrawl) / float64(max(1, foldBatches)), "us"},
		"store.auto_checkpoints":                    {float64(m.autoCheckpoints), "count"},
		"store.checkpoint_bytes_per_row":            {float64(m.snapshotBytes) / rows, "B"},
		"store.recover_s":                           {medianDur(m.recovers).Seconds(), "s"},
		"store.recover_allocs_per_row":              {median(m.recoverMallocs) / rows, "count"},
		"aggregate.rebuild_s":                       {medianDur(m.rebuilds).Seconds(), "s"},
		"api.export_serve_us_per_1k_rows":           {perRow(exportServe), "us"},
		"api.export_allocs_per_row":                 {median(m.exportMallocs) / rows, "count"},
		"client.export_decode_us_per_1k_rows":       {us(m.exportDecode), "us"},
		"api.replication_serve_us_per_1k_rows":      {perRow(replServe), "us"},
		"replica.apply_us_per_1k_rows":              {perRow(apply), "us"},
		"replica.rows_per_frame":                    {float64(tr.applyRows.Load()) / float64(max(1, tr.applyFrames.Load())), "count"},
		"runtime.allocs_per_fetch":                  {float64(plain.crawlMem.mallocs) / fetches, "count"},
		"trace.cpu_ms_per_check_overhead_pct":       {overhead(cpuPerCheck(plain), cpuPerCheck(m)), "%"},
		"trace.crawl_cpu_us_per_fetch_overhead_pct": {overhead(cpuPerFetch(plain), cpuPerFetch(m)), "%"},
	}
}

func perRound(rs []roundStat, f func(roundStat) float64) []float64 {
	out := make([]float64, len(rs))
	for i, r := range rs {
		out[i] = f(r)
	}
	return out
}

// crawlSlice is the length of the slices the crawl rate is sampled in.
// A slice spans a few GC cycles of the crawl, so slices with and without
// a collection do not split the rates in two.
const crawlSlice = 250 * time.Millisecond

// sampleRate samples count every slice until the returned stop is
// called, and returns the rate of each whole slice. A burst of other
// work on the machine then moves a few slices, not the median.
func sampleRate(count func() int, slice time.Duration) (stop func() []float64) {
	done := make(chan struct{})
	rates := make(chan []float64)
	go func() {
		var out []float64
		t := time.NewTicker(slice)
		defer t.Stop()
		last, at := count(), time.Now()
		for {
			select {
			case <-done:
				if len(out) == 0 {
					out = append(out, float64(count()-last)/time.Since(at).Seconds())
				}
				rates <- out
				return
			case now := <-t.C:
				n := count()
				out = append(out, float64(n-last)/now.Sub(at).Seconds())
				last, at = n, now
			}
		}
	}()
	return func() []float64 {
		close(done)
		return <-rates
	}
}

// flipTarget is a follower store that corrupts the first row it applies.
type flipTarget struct {
	*store.Store
	done bool
}

func (f *flipTarget) ApplyAt(seqs []uint64, obs []store.Observation) error {
	if !f.done && len(obs) > 0 {
		f.done = true
		obs = append([]store.Observation(nil), obs...)
		b := []byte(obs[0].SKU)
		b[0] ^= 1
		obs[0].SKU = string(b)
	}
	return f.Store.ApplyAt(seqs, obs)
}

// droppingStore loses the last row of the first crawl batch it is given.
type droppingStore struct {
	*store.Durable
	dropped *atomic.Bool
}

func (s droppingStore) Add(o store.Observation) { s.AddAll([]store.Observation{o}) }

func (s droppingStore) AddAll(obs []store.Observation) {
	if len(obs) > 1 && obs[0].Source == store.SourceCrawl && s.dropped.CompareAndSwap(false, true) {
		obs = obs[:len(obs)-1]
	}
	s.Durable.AddAll(obs)
}

// p99Block is the fewest consecutive checks a 99th percentile is taken
// over: ten latencies lie beyond it.
const p99Block = 1000

// blockP99 is the median, over blocks of at least p99Block consecutive
// checks, of each block's 99th percentile, so a burst of other work on
// the machine moves one block's tail, not the reported one. With fewer
// than two blocks' worth of checks it is the plain 99th percentile.
func blockP99(lat []time.Duration) time.Duration {
	blocks := max(1, len(lat)/p99Block)
	ps := make([]time.Duration, blocks)
	for b := range ps {
		ps[b] = percentile(lat[b*len(lat)/blocks:(b+1)*len(lat)/blocks], 99)
	}
	return medianDur(ps)
}
