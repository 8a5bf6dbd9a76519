package obshttp

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"

	"fpcc/internal/obs"
)

// promSample is one parsed exposition line: name, sorted label set,
// value.
type promSample struct {
	name   string
	labels map[string]string
	value  float64
}

var promLine = regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(?:\{(.*)\})? (\S+)$`)
var promLabel = regexp.MustCompile(`([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"`)

// parseProm is a miniature Prometheus text-format parser: it rejects
// any non-comment line that does not match the exposition grammar, so
// the test fails on malformed output rather than skipping it.
func parseProm(t *testing.T, r io.Reader) []promSample {
	t.Helper()
	var out []promSample
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		m := promLine.FindStringSubmatch(line)
		if m == nil {
			t.Fatalf("line does not parse as Prometheus exposition: %q", line)
		}
		s := promSample{name: m[1], labels: map[string]string{}}
		for _, lm := range promLabel.FindAllStringSubmatch(m[2], -1) {
			v, err := strconv.Unquote(`"` + lm[2] + `"`)
			if err != nil {
				t.Fatalf("label value does not unquote in %q: %v", line, err)
			}
			s.labels[lm[1]] = v
		}
		var err error
		if s.value, err = strconv.ParseFloat(m[3], 64); err != nil {
			t.Fatalf("value does not parse in %q: %v", line, err)
		}
		out = append(out, s)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

func find(samples []promSample, name string, labels map[string]string) (promSample, bool) {
	for _, s := range samples {
		if s.name != name {
			continue
		}
		ok := true
		for k, v := range labels {
			if s.labels[k] != v {
				ok = false
				break
			}
		}
		if ok {
			return s, true
		}
	}
	return promSample{}, false
}

// TestScrapeMatchesRecorder starts the server, feeds a recorder, and
// requires the live /metrics exposition to parse and to report the
// exact counter, probe, span and histogram state — including a label
// value that needs escaping.
func TestScrapeMatchesRecorder(t *testing.T) {
	srv := New()
	rec := (&obs.Config{}).Recorder(`sim"with\escapes`)
	srv.Attach(rec)
	srv.Attach(nil) // disabled recorders attach as no-ops

	rec.Count("steps", 41)
	rec.Count("steps", 1)
	rec.Gauge("level", 2.5)
	rec.Probe("q", 1.5, 7)
	rec.Observe("lat", 0.75)
	rec.Observe("lat", 3)
	rec.Span("setup").End()
	child := rec.Child("cell")
	child.Count("steps", 8)

	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("content type = %q, want text/plain exposition", ct)
	}
	samples := parseProm(t, resp.Body)
	if len(samples) == 0 {
		t.Fatal("empty exposition")
	}

	scope := map[string]string{"scope": `sim"with\escapes`}
	if s, ok := find(samples, "fpcc_counter_total", merge(scope, "name", "steps")); !ok || s.value != 50 {
		t.Errorf("counter steps = %+v, want 50 (rolled up over the child)", s)
	}
	if s, ok := find(samples, "fpcc_gauge", merge(scope, "name", "level")); !ok || s.value != 2.5 {
		t.Errorf("gauge level = %+v, want 2.5", s)
	}
	if s, ok := find(samples, "fpcc_probe", merge(scope, "series", "q")); !ok || s.value != 7 {
		t.Errorf("probe q = %+v, want 7", s)
	}
	if s, ok := find(samples, "fpcc_probe_samples_total", merge(scope, "series", "q")); !ok || s.value != 1 {
		t.Errorf("probe samples = %+v, want 1", s)
	}
	if s, ok := find(samples, "fpcc_span_count_total", merge(scope, "span", "setup")); !ok || s.value != 1 {
		t.Errorf("span count = %+v, want 1", s)
	}
	if s, ok := find(samples, "fpcc_hist_count", merge(scope, "name", "lat")); !ok || s.value != 2 {
		t.Errorf("hist count = %+v, want 2", s)
	}
	if s, ok := find(samples, "fpcc_hist_sum", merge(scope, "name", "lat")); !ok || s.value != 3.75 {
		t.Errorf("hist sum = %+v, want 3.75", s)
	}
	// Histogram buckets must be cumulative and end at +Inf == count.
	if s, ok := find(samples, "fpcc_hist_bucket", merge(scope, "name", "lat", "le", "+Inf")); !ok || s.value != 2 {
		t.Errorf("hist +Inf bucket = %+v, want 2", s)
	}
	var prev float64
	for _, le := range []string{"1", "4", "+Inf"} {
		s, ok := find(samples, "fpcc_hist_bucket", merge(scope, "name", "lat", "le", le))
		if !ok {
			t.Fatalf("missing le=%s bucket", le)
		}
		if s.value < prev {
			t.Errorf("bucket le=%s count %g below previous %g (not cumulative)", le, s.value, prev)
		}
		prev = s.value
	}

	// /summary must decode as the JSON manifest with the same state.
	sresp, err := http.Get("http://" + addr + "/summary")
	if err != nil {
		t.Fatal(err)
	}
	defer sresp.Body.Close()
	var man struct {
		UptimeSeconds float64        `json:"uptime_seconds"`
		Recorders     []*obs.Summary `json:"recorders"`
	}
	if err := json.NewDecoder(sresp.Body).Decode(&man); err != nil {
		t.Fatalf("/summary does not decode: %v", err)
	}
	if len(man.Recorders) != 1 || man.Recorders[0].Counters["steps"] != 42 {
		t.Fatalf("summary manifest = %+v, want one recorder with steps=42", man.Recorders)
	}
	if len(man.Recorders[0].Children) != 1 || man.Recorders[0].Children[0].Counters["steps"] != 8 {
		t.Fatalf("summary manifest lost the child: %+v", man.Recorders[0].Children)
	}
}

func merge(base map[string]string, kv ...string) map[string]string {
	out := map[string]string{}
	for k, v := range base {
		out[k] = v
	}
	for i := 0; i+1 < len(kv); i += 2 {
		out[kv[i]] = kv[i+1]
	}
	return out
}

// TestScrapeDuringRun hammers the recorder from worker goroutines
// while scraping repeatedly: every scrape must parse, and the counter
// must be monotonically non-decreasing across scrapes. Run with
// -race, this is also the data-race proof for live scraping.
func TestScrapeDuringRun(t *testing.T) {
	srv := New()
	rec := (&obs.Config{}).Recorder("live")
	srv.Attach(rec)
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := rec.Child(fmt.Sprintf("w%d", w))
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
					c.Count("ops", 1)
					c.Probe("p", float64(i), float64(i))
					c.Observe("h", float64(i%7)+0.5)
				}
			}
		}(w)
	}
	var prev float64
	for i := 0; i < 8; i++ {
		resp, err := http.Get("http://" + addr + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		samples := parseProm(t, resp.Body)
		resp.Body.Close()
		if s, ok := find(samples, "fpcc_counter_total", map[string]string{"scope": "live", "name": "ops"}); ok {
			if s.value < prev {
				t.Fatalf("scrape %d: ops went backwards: %g after %g", i, s.value, prev)
			}
			prev = s.value
		}
	}
	close(stop)
	wg.Wait()
	if prev == 0 {
		t.Error("no ops observed across the live scrapes")
	}
}

// TestPprofRoutes: -obs-listen is the only way a CLI serves profiles,
// so the monitoring mux must answer the pprof index and a named
// handler.
func TestPprofRoutes(t *testing.T) {
	srv := New()
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	for _, path := range []string{"/debug/pprof/", "/debug/pprof/cmdline"} {
		resp, err := http.Get("http://" + addr + path)
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Errorf("GET %s: status %d, want 200", path, resp.StatusCode)
		}
		if len(body) == 0 {
			t.Errorf("GET %s: empty body", path)
		}
	}
}
