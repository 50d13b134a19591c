package main

// The per-layer ledger of a traced run: counters scraped from the
// program's own metrics sources plus the decorators' counts and times,
// taken as differences over the measured window.

import (
	"bufio"
	"bytes"
	"fmt"
	"slices"
	"strconv"
	"strings"
	"time"

	"cryptonn/internal/authority"
	"cryptonn/internal/core"
	"cryptonn/internal/dlog"
	"cryptonn/internal/fixedpoint"
	"cryptonn/internal/group"
	"cryptonn/internal/service"
)

// engineCounters is a scrape of Server.EngineMetrics, by metric name.
type engineCounters map[string]float64

// scrapeEngine reads the service's secure-matrix engine counters from its
// Prometheus text exposition.
func scrapeEngine(srv *service.Server) (engineCounters, error) {
	var buf bytes.Buffer
	srv.EngineMetrics().WriteMetrics(&buf)
	out := engineCounters{}
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, val, ok := strings.Cut(line, " ")
		if !ok {
			return nil, fmt.Errorf("engine metrics: malformed line %q", line)
		}
		v, err := strconv.ParseFloat(val, 64)
		if err != nil {
			return nil, fmt.Errorf("engine metrics: %q: %w", line, err)
		}
		out[name] = v
	}
	return out, sc.Err()
}

func (c engineCounters) sub(o engineCounters) engineCounters {
	d := engineCounters{}
	for k, v := range c {
		d[k] = v - o[k]
	}
	return d
}

func (c engineCounters) get(name string) float64 {
	return c["cryptonn_securemat_"+name+"_total"]
}

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// keyWindow brackets a measured window at the key-service boundary, in
// the engine's counters and in the authority's own.
type keyWindow struct {
	keys   keySnapshot
	engine engineCounters
	auth   authority.Stats
}

// openKeyWindow snapshots the decorator, engine and authority counters.
func openKeyWindow(st *stack, tr *tracer) (keyWindow, error) {
	eng, err := scrapeEngine(st.srv)
	if err != nil {
		return keyWindow{}, err
	}
	return keyWindow{keys: tr.keys.snapshot(), engine: eng, auth: st.auth.Stats()}, nil
}

// close records the window's authority and securemat metrics and
// reports whether the decorator's key counts agree with the
// authority's.
func (w keyWindow) close(out *outcome, st *stack, tr *tracer) error {
	eng, err := scrapeEngine(st.srv)
	if err != nil {
		return err
	}
	d := eng.sub(w.engine)
	k := tr.keys.snapshot().sub(w.keys)
	keys := k.ip + k.bo + k.sparse
	out.layer("authority.calls", "count", float64(k.calls))
	out.layer("authority.keys.ip", "count", float64(k.ip))
	out.layer("authority.keys.bo", "count", float64(k.bo))
	out.layer("authority.keys.sparse", "count", float64(k.sparse))
	out.layer("authority.busy_s", "s", k.busy.Seconds())
	out.layer("authority.ms_per_key", "ms", ratio(ms(k.busy), float64(keys)))

	hits, misses := d.get("dotkey_cache_hits"), d.get("dotkey_cache_misses")
	out.layer("securemat.dotkey_hit_ratio", "ratio", ratio(hits, hits+misses))
	out.layer("securemat.dotkey_lookups", "count", hits+misses)
	out.layer("securemat.masked_keys", "count", d.get("masked_keys"))
	pad := d.get("pad_coords")
	out.layer("securemat.pad_waste_ratio", "ratio", ratio(pad, float64(k.sparseCoords)-pad))
	solved, skipped := d.get("topk_solved"), d.get("topk_skipped")
	out.layer("securemat.topk_skip_ratio", "ratio", ratio(skipped, solved+skipped))

	now := st.auth.Stats()
	as := authority.Stats{IPKeys: now.IPKeys - w.auth.IPKeys, IPKeyScalars: now.IPKeyScalars - w.auth.IPKeyScalars, BOKeys: now.BOKeys - w.auth.BOKeys}
	if err := crossCheck(as, k); err != nil {
		out.mismatches++
		out.failed++
		out.attempted++
		out.info["ledger_error"] = err.Error()
	}
	// The same requests derived on the authority itself, without the
	// network: the difference per key is what the wire and the
	// authority's TCP front end add. The replay runs after the window,
	// so it moves none of the counts above.
	inproc, err := tr.keys.replayKeys(st.auth, st.auth)
	if err != nil {
		return fmt.Errorf("replaying key requests in process: %w", err)
	}
	out.layer("authority.inproc_ms_per_key", "ms", ms(inproc))
	return nil
}

// crossCheck compares the decorator's key counts with the authority's
// own issuance counters over the same window.
func crossCheck(as authority.Stats, k keySnapshot) error {
	if int64(as.IPKeys) != k.ip+k.sparse || int64(as.BOKeys) != k.bo {
		return fmt.Errorf("key ledger disagrees with the authority: decorator ip=%d sparse=%d bo=%d, authority ip=%d bo=%d",
			k.ip, k.sparse, k.bo, as.IPKeys, as.BOKeys)
	}
	return nil
}

// timeSolverBuild times dlog.NewSolver at the given bound over a freshly
// parsed group, so the baby-step table is built cold rather than found
// in the cache the measured stack filled.
func timeSolverBuild(bits int, bound int64) (time.Duration, error) {
	params, err := group.Embedded(bits)
	if err != nil {
		return 0, err
	}
	t0 := time.Now()
	if _, err := dlog.NewSolver(params, bound); err != nil {
		return 0, err
	}
	return time.Since(t0), nil
}

// servingLedger is the traced serving run's window state.
type servingLedger struct {
	st   *servingStack
	tr   *tracer
	keys keyWindow

	stop chan struct{}
	done chan struct{}
	// maxDepth is written by the sampler until done is closed.
	maxDepth int
	bytes0   int64
	evals0   int
}

// startLedger opens the measured window and starts sampling the
// dispatcher's queue depth.
func startLedger(s *servingStack, tr *tracer) (*servingLedger, error) {
	kw, err := openKeyWindow(s.stack, tr)
	if err != nil {
		return nil, err
	}
	l := &servingLedger{st: s, tr: tr, keys: kw, stop: make(chan struct{}), done: make(chan struct{}),
		bytes0: tr.requestBytes.Load(), evals0: len(tr.evalSpans())}
	go func() {
		defer close(l.done)
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-l.stop:
				return
			case <-tick.C:
				l.maxDepth = max(l.maxDepth, s.ps.Stats().QueueDepth)
			}
		}
	}()
	return l, nil
}

// finish closes the window over the given requests and records every
// per-layer metric of a serving run.
func (l *servingLedger) finish(out *outcome, spec serveSpec, res []reqResult, in *servingInputs) error {
	close(l.stop)
	<-l.done
	if err := l.keys.close(out, l.st.stack, l.tr); err != nil {
		return err
	}
	evals := l.tr.evalSpans()[l.evals0:]
	var busy time.Duration
	var samples int
	for _, e := range evals {
		busy += e.end.Sub(e.start)
		samples += e.samples
	}
	out.layer("service.evals", "count", float64(len(evals)))
	out.layer("service.eval_busy_s", "s", busy.Seconds())
	out.layer("service.eval_ms_per_sample", "ms", ratio(ms(busy), float64(samples)))
	out.layer("wire.samples_per_eval", "count", ratio(float64(samples), float64(len(evals))))

	// Each answered request is matched to the evaluation that served it:
	// the last one to finish before the answer arrived. Queue wait runs
	// from the send to that evaluation's start (request transfer and
	// decode included); wire overhead is the request's latency from its
	// send minus the evaluation's duration.
	var waits, overheads []time.Duration
	for _, r := range res {
		if r.err != nil {
			continue
		}
		i, _ := slices.BinarySearchFunc(evals, r.done, func(e evalSpan, t time.Time) int { return e.end.Compare(t) })
		if i == 0 {
			continue
		}
		e := evals[i-1]
		waits = append(waits, max(0, e.start.Sub(r.sent)))
		overheads = append(overheads, r.done.Sub(r.sent)-e.end.Sub(e.start))
	}
	slices.Sort(waits)
	slices.Sort(overheads)
	tailPct := pickTail(len(waits))
	out.layer("wire.queue_wait_ms_p50", "ms", ms(percentile(waits, 50)))
	out.layer("wire.queue_wait_ms_tail", "ms", ms(percentile(waits, tailPct)))
	out.layer("wire.overhead_ms_p50", "ms", ms(percentile(overheads, 50)))
	out.info["queue_wait_tail_percentile"] = tailPct
	ds := l.st.ps.Stats()
	out.layer("wire.queue_depth_max", "count", float64(l.maxDepth))
	out.layer("wire.rejected", "count", float64(ds.Rejected))
	out.layer("wire.bytes_per_request", "B", ratio(float64(l.tr.requestBytes.Load()-l.bytes0), float64(len(res))))

	// Client-side encryption happens before the clock in serving; it is
	// reported so the ledger shows it moves nothing here.
	out.layer("client.encrypt_ms_per_sample", "ms", ratio(ms(in.encrypt), float64(in.samples)))
	out.layer("wire.submit_s", "s", 0)
	out.layer("wire.submit_bytes", "B", 0)
	out.layer("service.train_s", "s", 0)
	out.layer("service.step_s_mean", "s", 0)
	out.layer("nn.plain_step_ms", "ms", 0)
	bound := core.SolverBound(fixedpoint.Default(), spec.features, 1, serviceMaxWeight, 1)
	build, err := timeSolverBuild(spec.bits, bound)
	if err != nil {
		return err
	}
	out.layer("dlog.table_build_s", "s", build.Seconds())
	return nil
}
