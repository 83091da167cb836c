package main

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"os"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"adhocrace/internal/detect"
	"adhocrace/internal/serve"
	"adhocrace/internal/serve/client"
	"adhocrace/internal/workloads"
	"adhocrace/internal/workloads/dataracetest"
	"adhocrace/internal/workloads/parsec"
)

// The raced path: an in-process serve.Server on loopback TCP, driven by
// closed-loop client.Clients (one per CPU, at most 2) — each opens its next
// session only after the previous one completed. Sessions follow a seeded
// mix: PARSEC models under the paper's presets with Repeat > 1 (compile
// cache hits after a model's first session), data-race-test cases, and
// fresh synth:<seed> programs (always cache misses). The server runs its
// default configuration, shadow GC on. After the measured window every
// reassembled report is compared with a direct Prepared.Run of the same
// workload, tool and seed.

// racedTools are the session presets the mix draws from.
var racedTools = []string{"lib", "spin", "nolib", "drd"}

// racedMix generates the session sequence of a workload seed. The
// sequence is stratified, so every seed gives the same composition: each
// round of ten sessions holds five data-race-test cases (repeat 2), three
// PARSEC models under one of the presets (repeat 2 or 3, compile-cache hits
// after a model's first session) and two fresh synthetic programs (always
// cache misses). The seed picks where the model, case and tool rotations
// start and each session's scheduler seed. The split, the repeats and the
// tool rotation are assumptions: the repository records no served traffic
// to derive them from. With three PARSEC sessions in ten, the p95 latency
// is a PARSEC session's (logTail reports the tail's kinds every run).
type racedMix struct {
	seed      int64
	drt       []dataracetest.Case
	models    []parsec.Model
	drtOrder  []int
	modelBase int
}

// racedPattern is one round of the mix: 'd' data-race-test case, 'p'
// PARSEC model, 's' synthetic program.
const racedPattern = "dpdsdpdsdp"

func newRacedMix(seed int64) *racedMix {
	r := rand.New(rand.NewPCG(uint64(seed), 0))
	m := &racedMix{seed: seed, drt: dataracetest.Suite(), models: parsec.Models()}
	m.drtOrder = r.Perm(len(m.drt))
	m.modelBase = r.IntN(len(m.models))
	return m
}

// at returns session i of the sequence.
func (m *racedMix) at(i int64) serve.SessionRequest {
	r := rand.New(rand.NewPCG(uint64(m.seed), uint64(i)+1))
	round, slot := i/int64(len(racedPattern)), int(i%int64(len(racedPattern)))
	// k counts the earlier sessions of the same kind.
	kind := racedPattern[slot]
	k := round * int64(strings.Count(racedPattern, string(kind)))
	k += int64(strings.Count(racedPattern[:slot], string(kind)))
	tool := racedTools[int(k+round)%len(racedTools)]
	switch kind {
	case 'p':
		return serve.SessionRequest{Workload: m.models[(m.modelBase+int(k))%len(m.models)].Name, Tool: tool,
			Seed: int64(1 + r.IntN(5)), Repeat: 2 + int(k%2)}
	case 'd':
		return serve.SessionRequest{Workload: m.drt[m.drtOrder[k%int64(len(m.drt))]].Name, Tool: tool,
			Seed: int64(1 + r.IntN(3)), Repeat: 2}
	default:
		// Distinct per (seed, i): every synth session compiles a new program.
		return serve.SessionRequest{Workload: fmt.Sprintf("%s%d", workloads.SynthPrefix, uint64(m.seed)*1_000_003+uint64(i)),
			Tool: tool, Seed: 1, Repeat: 1}
	}
}

// sessionOutcome is one completed (or failed) session.
type sessionOutcome struct {
	req     serve.SessionRequest
	latency time.Duration
	accept  time.Duration
	frames  int
	// fresh marks a workload no earlier session of the run requested.
	fresh  bool
	events int64
	fps    []string // per run, in run order
	err    error
}

// runSession drives one session with Open/Next, timing admission and the
// whole session, then reassembles and fingerprints every run's report.
func runSession(c *client.Client, req serve.SessionRequest) sessionOutcome {
	out := sessionOutcome{req: req}
	start := time.Now()
	s, err := c.Open(req)
	out.accept = time.Since(start)
	if err != nil {
		out.err = err
		return out
	}
	defer s.Close()
	out.frames = 1
	var runs []client.RunOutcome
	var warnings []serve.WireWarning
	for {
		fr, err := s.Next()
		if err != nil {
			out.err = err
			return out
		}
		out.frames++
		if fr.Type == serve.FrameWarning {
			warnings = append(warnings, *fr.Warning)
			continue
		}
		if fr.Type != serve.FrameResult {
			out.err = fmt.Errorf("unexpected frame %c", byte(fr.Type))
			return out
		}
		runs = append(runs, client.RunOutcome{Result: *fr.Result, Warnings: warnings})
		warnings = nil
		if fr.Result.Last {
			break
		}
	}
	out.latency = time.Since(start)
	for _, r := range runs {
		rep, err := r.Report()
		if err != nil {
			out.err = err
			return out
		}
		out.events += rep.Events
		out.fps = append(out.fps, fingerprint(rep))
	}
	return out
}

// racedClients is the closed-loop client count: one per CPU, at most 2.
func racedClients() int { return max(1, min(2, runtime.NumCPU())) }

// driveSessions runs the closed loop until the budget is spent (or, in the
// self-test, a fixed session count is reached) and returns the outcomes in
// completion order and the wall time. Mix indices continue from *next.
func driveSessions(o options, addr string, mix *racedMix, next *atomic.Int64, budget time.Duration,
	seen *sync.Map, rec *recorder, parent spanID) ([]sessionOutcome, time.Duration) {
	var mu sync.Mutex
	var outs []sessionOutcome
	limit := next.Load() + 6
	start := time.Now()
	deadline := start.Add(budget)
	var wg sync.WaitGroup
	for w := 0; w < racedClients(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Sessions of one client are sequential, so their spans nest
			// cleanly under the client's.
			clientSpan := parent
			if rec != nil {
				clientSpan = rec.begin(parent, "raced.client")
				defer rec.end(clientSpan)
			}
			c := client.New("tcp", addr)
			for time.Now().Before(deadline) || o.tiny {
				i := next.Add(1) - 1
				if o.tiny && i >= limit {
					return
				}
				req := mix.at(i)
				_, loaded := seen.LoadOrStore(req.Workload, true)
				var sid spanID
				if rec != nil {
					sid = rec.begin(clientSpan, "raced.session")
				}
				out := runSession(c, req)
				if rec != nil {
					recordSession(rec, sid, out)
				}
				out.fresh = !loaded
				mu.Lock()
				outs = append(outs, out)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return outs, time.Since(start)
}

// recordSession closes a session's span with its accept and stream
// children, reconstructed from the session's own timings.
func recordSession(rec *recorder, sid spanID, out sessionOutcome) {
	rec.mu.Lock()
	s := rec.spans[sid-1]
	rec.mu.Unlock()
	end := s.Start + out.latency.Nanoseconds()
	if out.err != nil {
		end = time.Since(rec.epoch).Nanoseconds()
	}
	mid := s.Start + out.accept.Nanoseconds()
	rec.mu.Lock()
	defer rec.mu.Unlock()
	rec.spans[sid-1].End = end
	n := spanID(len(rec.spans))
	rec.spans = append(rec.spans,
		span{ID: n + 1, Parent: sid, Name: "serve.accept", Start: s.Start, End: mid},
		span{ID: n + 2, Parent: sid, Name: "serve.stream", Start: mid, End: end})
}

// verifySessions compares every run of every session with a direct
// Prepared.Run, memoized per (workload, tool, seed).
func verifySessions(outs []sessionOutcome, res *result) {
	preps := make(map[string]*detect.Prepared)
	direct := make(map[string]string)
	for _, out := range outs {
		res.attempt(out.err)
		if out.err != nil {
			continue
		}
		if len(out.fps) != max(out.req.Repeat, 1) {
			res.mismatch("%s/%s: %d runs, want %d", out.req.Workload, out.req.Tool, len(out.fps), out.req.Repeat)
			continue
		}
		cfg, err := serve.ToolConfig(out.req.Tool, out.req.Window)
		if err != nil {
			res.mismatch("%v", err)
			continue
		}
		for r, fp := range out.fps {
			seed := out.req.Seed + int64(r)
			key := fmt.Sprintf("%s/%s/%d", out.req.Workload, out.req.Tool, seed)
			want, ok := direct[key]
			if !ok {
				prep := preps[out.req.Workload]
				if prep == nil {
					build, found := workloads.Find(out.req.Workload)
					if !found {
						res.mismatch("unknown workload %q", out.req.Workload)
						break
					}
					prep = detect.PrepareBuild(build)
					preps[out.req.Workload] = prep
				}
				rep, _, err := prep.Run(cfg, seed, detect.RunOpts{GCShadow: true})
				if err != nil {
					res.mismatch("%s direct run: %v", key, err)
					continue
				}
				want = fingerprint(rep)
				direct[key] = want
			}
			res.check(key+" served vs direct report", fp, want)
		}
	}
}

// startServer starts a server on a loopback port with its default
// configuration.
func startServer() (*serve.Server, error) {
	srv := serve.New(serve.Config{Network: "tcp", Addr: "127.0.0.1:0"})
	if err := srv.Start(); err != nil {
		srv.Close()
		return nil, err
	}
	return srv, nil
}

// racedSlice is how long one step drives sessions.
const racedSlice = 500 * time.Millisecond

// racedPath drives sessions for a slice per step against one server.
// Set-up starts the server and completes one warm-up session on it.
type racedPath struct {
	srv     *serve.Server
	mix     *racedMix
	next    atomic.Int64
	seen    sync.Map
	outs    []sessionOutcome
	elapsed time.Duration
}

func (p *racedPath) setup(o options) error {
	if p.srv != nil {
		p.srv.Drain()
	}
	var err error
	if p.srv, err = startServer(); err != nil {
		return err
	}
	p.mix = newRacedMix(o.seed)
	warm := serve.SessionRequest{Workload: dataracetest.Suite()[0].Name, Tool: "lib"}
	if _, err := client.New("tcp", p.srv.Addr().String()).Run(warm); err != nil {
		return fmt.Errorf("warm-up session: %w", err)
	}
	return nil
}

func (p *racedPath) step(o options, res *result) error {
	outs, elapsed := driveSessions(o, p.srv.Addr().String(), p.mix, &p.next, racedSlice, &p.seen, nil, 0)
	p.outs = append(p.outs, outs...)
	p.elapsed += elapsed
	return nil
}

func (p *racedPath) finish(o options, res *result) error {
	if p.srv != nil {
		p.srv.Drain()
		p.srv = nil
	}
	verifySessions(p.outs, res)
	var lat []float64
	var runs int
	for _, out := range p.outs {
		if out.err == nil {
			lat = append(lat, ms(out.latency))
			runs += len(out.fps)
		}
	}
	if len(lat) == 0 {
		return errors.New("no session completed")
	}
	logSamples("raced_session_ms", lat)
	p95 := quantile(lat, 0.95)
	logTail(p.outs, p95)
	fmt.Fprintf(os.Stderr, "raced sessions p50 %.4g ms, p95 %.4g ms, %.4g runs/s\n",
		quantile(lat, 0.5), p95, float64(runs)/p.elapsed.Seconds())
	return nil
}

// logTail reports which session kinds make up the latency tail, the
// sessions at or above the p95: the mix is assumed, so the kind the p95
// measures is a property of the mix, not of served traffic.
func logTail(outs []sessionOutcome, p95 float64) {
	kinds := map[byte]int{}
	for _, out := range outs {
		if out.err == nil && ms(out.latency) >= p95 {
			kinds[sessionKind(out.req)]++
		}
	}
	fmt.Fprintf(os.Stderr, "raced sessions at or above p95: %d PARSEC, %d data-race-test, %d synth\n",
		kinds['p'], kinds['d'], kinds['s'])
}

// sessionKind returns a request's kind as racedPattern spells it.
func sessionKind(req serve.SessionRequest) byte {
	if strings.HasPrefix(req.Workload, workloads.SynthPrefix) {
		return 's'
	}
	for _, m := range parsec.Models() {
		if m.Name == req.Workload {
			return 'p'
		}
	}
	return 'd'
}

// traceRaced drives sessions untraced (allocation per event), then traced
// with serve.accept and serve.stream spans (the serve metrics), then
// decomposes the first sessions of the mix layer by layer. A session's
// server-side work cannot be split into layers from outside the server, so
// the traced path the summary reports is the decomposed units.
func traceRaced(o options) (*result, error) {
	res := newResult()
	srv, err := startServer()
	if err != nil {
		return nil, err
	}
	defer srv.Drain()
	mix := newRacedMix(o.seed)
	var next atomic.Int64
	seen := &sync.Map{}

	// Untraced half: allocation per event.
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	untracedOuts, _ := driveSessions(o, srv.Addr().String(), mix, &next, o.budget()/2, seen, nil, 0)
	runtime.ReadMemStats(&after)
	var events int64
	for _, out := range untracedOuts {
		events += out.events
	}
	res.set("runtime.alloc_bytes_per_event", float64(after.TotalAlloc-before.TotalAlloc)/float64(max(events, 1)), "B")

	// Traced quarter: sessions with accept/stream spans.
	t := newTracer()
	root := t.rec.begin(0, "raced.sessions")
	tracedOuts, _ := driveSessions(o, srv.Addr().String(), mix, &next, o.budget()/4, seen, t.rec, root)
	t.rec.end(root)
	var cached, fresh, frames []float64
	for _, out := range tracedOuts {
		if out.err != nil {
			continue
		}
		frames = append(frames, float64(out.frames))
		switch {
		case strings.HasPrefix(out.req.Workload, workloads.SynthPrefix):
			fresh = append(fresh, ms(out.accept))
		case !out.fresh:
			cached = append(cached, ms(out.accept))
		}
	}
	res.set("serve.accept_ms.cached", median(cached), "ms")
	res.set("serve.accept_ms.fresh", median(fresh), "ms")
	res.set("serve.frames_per_session", median(frames), "count")
	verifySessions(append(untracedOuts, tracedOuts...), res)

	// Decomposition: the first sessions of the mix, through the layers
	// one call at a time.
	units := t.rec.begin(0, "raced.units")
	sessions := int64(24)
	if o.tiny {
		sessions = 3
	}
	for i := int64(0); i < sessions; i++ {
		req := mix.at(i)
		build, ok := workloads.Find(req.Workload)
		cfg, err := serve.ToolConfig(req.Tool, req.Window)
		if !ok || err != nil {
			res.mismatch("session %d: cannot resolve %s/%s", i, req.Workload, req.Tool)
			continue
		}
		decomposeProgram(t, units, res, req.Workload, build, []detect.Config{cfg}, req.Seed, true)
	}
	t.rec.end(units)
	t.stats.metrics(res)
	zeroMetrics(res, harnessMetrics, overheadMetrics)
	return res, t.rec.summarize(res, o, "e2e.run", t.untraced)
}
