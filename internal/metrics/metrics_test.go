package metrics_test

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"
	"unicode/utf8"

	"repro/internal/httpapi"
	"repro/internal/matrix"
	"repro/internal/metrics"
	"repro/internal/service"
)

var update = flag.Bool("update", false, "rewrite the golden files in testdata from the current writer")

// exposition is a parsed Prometheus text body.
type exposition struct {
	samples map[string]float64 // canonical series key (see seriesKey) → value
	types   map[string]string  // family → its # TYPE
}

// seriesKey is the canonical key of one series: the name, then the label
// pairs sorted by label name, each value Go-quoted.
func seriesKey(name string, labels ...string) string {
	if len(labels) == 0 {
		return name
	}
	pairs := make([]string, 0, len(labels)/2)
	for i := 0; i+1 < len(labels); i += 2 {
		pairs = append(pairs, fmt.Sprintf("%s=%q", labels[i], labels[i+1]))
	}
	sort.Strings(pairs)
	return name + "{" + strings.Join(pairs, ",") + "}"
}

// parseText is a strict reader of the text format (0.0.4) as the writer
// may emit it: every non-comment line is `name{label="value",...} value`,
// label values use only the \\, \" and \n escapes and are valid UTF-8,
// each family has exactly one # TYPE before its samples, and no series
// repeats.
func parseText(body string) (exposition, error) {
	ex := exposition{samples: map[string]float64{}, types: map[string]string{}}
	if body != "" && !strings.HasSuffix(body, "\n") {
		return ex, fmt.Errorf("body does not end in a newline")
	}
	for _, line := range strings.Split(strings.TrimSuffix(body, "\n"), "\n") {
		if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
			name, typ, _ := strings.Cut(rest, " ")
			switch {
			case !validName(name):
				return ex, fmt.Errorf("bad family name in %q", line)
			case typ != "counter" && typ != "gauge" && typ != "histogram":
				return ex, fmt.Errorf("bad type in %q", line)
			case ex.types[name] != "":
				return ex, fmt.Errorf("second # TYPE for %s", name)
			}
			ex.types[name] = typ
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue
		}
		name, labels, value, err := parseSample(line)
		if err != nil {
			return ex, err
		}
		fam := name
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			if base, ok := strings.CutSuffix(name, suffix); ok && ex.types[base] == "histogram" {
				fam = base
			}
		}
		if ex.types[fam] == "" {
			return ex, fmt.Errorf("sample %q has no # TYPE before it", line)
		}
		key := seriesKey(name, labels...)
		if _, dup := ex.samples[key]; dup {
			return ex, fmt.Errorf("series %s repeats", key)
		}
		ex.samples[key] = value
	}
	return ex, nil
}

func validName(s string) bool {
	for i, c := range s {
		if !(c == '_' || c == ':' || 'a' <= c && c <= 'z' || 'A' <= c && c <= 'Z' || i > 0 && '0' <= c && c <= '9') {
			return false
		}
	}
	return s != ""
}

// parseSample reads one sample line into its name, label pairs and value.
func parseSample(line string) (name string, labels []string, value float64, err error) {
	bad := func(why string) (string, []string, float64, error) {
		return "", nil, 0, fmt.Errorf("%s in %q", why, line)
	}
	end := strings.IndexAny(line, "{ ")
	if end <= 0 || !validName(line[:end]) {
		return bad("bad metric name")
	}
	name, rest := line[:end], line[end:]
	if rest[0] == '{' {
		rest = rest[1:]
		for rest != "" && rest[0] != '}' {
			eq := strings.Index(rest, `="`)
			if eq <= 0 || !validName(rest[:eq]) {
				return bad("bad label name")
			}
			lname := rest[:eq]
			rest = rest[eq+2:]
			var v strings.Builder
			for {
				if rest == "" {
					return bad("unterminated label value")
				}
				c := rest[0]
				rest = rest[1:]
				if c == '"' {
					break
				}
				if c == '\\' {
					if rest == "" {
						return bad("dangling escape")
					}
					switch rest[0] {
					case '\\', '"':
						v.WriteByte(rest[0])
					case 'n':
						v.WriteByte('\n')
					default:
						return bad(fmt.Sprintf("illegal escape \\%c", rest[0]))
					}
					rest = rest[1:]
					continue
				}
				v.WriteByte(c)
			}
			if !utf8.ValidString(v.String()) {
				return bad("label value is not UTF-8")
			}
			labels = append(labels, lname, v.String())
			rest = strings.TrimPrefix(rest, ",")
		}
		if rest == "" {
			return bad("unterminated label set")
		}
		rest = rest[1:]
	}
	val, ok := strings.CutPrefix(rest, " ")
	if !ok || strings.Contains(val, " ") {
		return bad("want exactly `series value`")
	}
	value, perr := strconv.ParseFloat(val, 64)
	if perr != nil {
		return bad("bad value")
	}
	return name, labels, value, nil
}

func mustParse(t *testing.T, body string) exposition {
	t.Helper()
	ex, err := parseText(body)
	if err != nil {
		t.Fatal(err)
	}
	return ex
}

func render(t *testing.T, s metrics.Snapshot) string {
	t.Helper()
	var b strings.Builder
	if err := metrics.WriteProm(&b, s); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

var bounds = []float64{1, 2.5, 5, 10, 25, 50, 100, 250, 500, 1000, 2500, 5000, 10000}

// fixture is a fully populated snapshot: every field nonzero, two tenants,
// all three outcome histograms.
func fixture() metrics.Snapshot {
	return metrics.Snapshot{
		Workers: 4, UptimeSec: 12.5,
		Submitted: 120, Completed: 90, Failed: 7, Canceled: 11,
		RecoveredDone: 5, RecoveredFailed: 2, RecoveredCanceled: 3,
		QuotaRejected: 4, RateLimited: 6, QueueFullRejected: 8, ShedJobs: 9,
		QueueDepth: 10, InFlight: 2,
		TenantQueued: map[string]int{"alpha": 6, "beta": 4},
		CacheHits:    17, CacheSize: 13, CacheEvictions: 21, CacheBytes: 40960,
		LanesDispatched: 15, LaneJobs: 48, LaneFillRatio: 0.8,
		WallP50Ms: 3.25, WallP99Ms: 480.5,
		Latency: map[string]metrics.LatencyStats{
			"done":     {Count: 90, SumMs: 1234.5, P50Ms: 3.25, P99Ms: 480.5, BucketMs: bounds, BucketCounts: []int64{5, 12, 20, 31, 45, 58, 66, 75, 82, 86, 88, 89, 90}},
			"failed":   {Count: 7, SumMs: 56.25, P50Ms: 4, P99Ms: 30, BucketMs: bounds, BucketCounts: []int64{1, 1, 2, 3, 4, 5, 6, 7, 7, 7, 7, 7, 7}},
			"canceled": {Count: 11, SumMs: 0.75, P50Ms: 0.0625, P99Ms: 0.125, BucketMs: bounds, BucketCounts: []int64{11, 11, 11, 11, 11, 11, 11, 11, 11, 11, 11, 11, 11}},
		},
		TotalModeledMakespan: 123456.75, JobsPerSec: 7.2,
		CheckpointsSaved: 33, CheckpointBytes: 1048576,
		ScheduleBuilds: 12, ScheduleHits: 345,
	}
}

func fixtureCluster() *metrics.ClusterMetrics {
	return &metrics.ClusterMetrics{
		NodeID: "b", Peers: []string{"a", "c"}, Alive: 2,
		RoutedLocal: 31, RoutedProxied: 17, ProxyErrors: 1,
		StealAttempts: 6, JobsStolen: 4, StolenCompleted: 3, StolenReturned: 1, JobsLent: 5,
		RecordsShipped: 210, ShipErrors: 2, CkptsShipped: 44, CkptShipErrors: 3, RecordsReceived: 198,
		PeerDeaths: 1, Adoptions: 1, AdoptedJobs: 12,
		MembershipMismatch: 7,
	}
}

// checkNonzero fails on any zero leaf field under v, so a new metric
// field cannot slip past the golden files unpopulated.
func checkNonzero(t *testing.T, path string, v reflect.Value) {
	t.Helper()
	switch v.Kind() {
	case reflect.Pointer:
		checkNonzero(t, path, v.Elem())
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			checkNonzero(t, path+"."+v.Type().Field(i).Name, v.Field(i))
		}
	default:
		if v.IsZero() || v.Kind() == reflect.Map && v.Len() < 2 {
			t.Errorf("fixture field %s is zero (or a map with fewer than two keys)", path)
		}
	}
}

// TestGoldenExposition pins both outputs of a fully populated snapshot,
// standalone and with a cluster section, to golden files rendered by the
// hand-written Prometheus renderers and JSON bridge this package
// replaced: the /metrics sample set (series name and label set → value)
// and each family's # TYPE must match, and the /api/v2/metrics JSON must
// be byte-identical. HELP text and line order are free.
func TestGoldenExposition(t *testing.T) {
	clustered := fixture()
	clustered.Cluster = fixtureCluster()
	checkNonzero(t, "Snapshot", reflect.ValueOf(clustered))
	for _, tc := range []struct {
		name string
		snap metrics.Snapshot
	}{{"snapshot", fixture()}, {"snapshot_cluster", clustered}} {
		t.Run(tc.name, func(t *testing.T) {
			var js bytes.Buffer
			enc := json.NewEncoder(&js) // the handlers' encoding
			enc.SetIndent("", "  ")
			if err := enc.Encode(tc.snap); err != nil {
				t.Fatal(err)
			}
			prom := render(t, tc.snap)
			jsonPath, promPath := "testdata/"+tc.name+".json", "testdata/"+tc.name+".prom"
			if *update {
				if err := os.WriteFile(jsonPath, js.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(promPath, []byte(prom), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			wantJSON, err := os.ReadFile(jsonPath)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(js.Bytes(), wantJSON) {
				t.Errorf("JSON differs from %s:\n%s", jsonPath, js.String())
			}
			wantProm, err := os.ReadFile(promPath)
			if err != nil {
				t.Fatal(err)
			}
			got, want := mustParse(t, prom), mustParse(t, string(wantProm))
			for fam, typ := range want.types {
				if got.types[fam] != typ {
					t.Errorf("family %s: # TYPE %q, want %q", fam, got.types[fam], typ)
				}
			}
			if len(got.types) != len(want.types) {
				t.Errorf("%d families, want %d", len(got.types), len(want.types))
			}
			for k, v := range want.samples {
				if g, ok := got.samples[k]; !ok || g != v {
					t.Errorf("%s = %v (present %v), want %v", k, g, ok, v)
				}
			}
			for k := range got.samples {
				if _, ok := want.samples[k]; !ok {
					t.Errorf("unexpected series %s", k)
				}
			}
		})
	}
}

// TestEveryFieldExported walks the metric structs: every exported field
// carries a prom tag (or is a struct the writer descends into), the only
// JSON-only fields are the percentiles and the peer list, and every
// family has a type and help text.
func TestEveryFieldExported(t *testing.T) {
	var optOut []string
	var walk func(reflect.Type)
	walk = func(typ reflect.Type) {
		for i := 0; i < typ.NumField(); i++ {
			f := typ.Field(i)
			jsonName, _, _ := strings.Cut(f.Tag.Get("json"), ",")
			tag, ok := f.Tag.Lookup("prom")
			ft := f.Type
			if ft.Kind() == reflect.Pointer {
				ft = ft.Elem()
			}
			switch {
			case !ok && ft.Kind() == reflect.Struct:
				walk(ft)
			case !ok:
				t.Errorf("%s.%s has no prom tag (add one, or prom:\"-\" for a JSON-only field)", typ.Name(), f.Name)
			case tag == "-":
				optOut = append(optOut, jsonName)
			}
			if ft.Kind() == reflect.Map && ft.Elem().Kind() == reflect.Struct {
				walk(ft.Elem())
			}
		}
	}
	walk(reflect.TypeOf(metrics.Snapshot{}))
	sort.Strings(optOut)
	if want := []string{"p50_ms", "p99_ms", "peers", "wall_p50_ms", "wall_p99_ms"}; !reflect.DeepEqual(optOut, want) {
		t.Errorf("JSON-only fields = %v, want %v", optOut, want)
	}

	s := fixture()
	s.Cluster = fixtureCluster()
	body := render(t, s)
	ex := mustParse(t, body)
	help := map[string]bool{}
	for _, line := range strings.Split(body, "\n") {
		if rest, ok := strings.CutPrefix(line, "# HELP "); ok {
			name, text, _ := strings.Cut(rest, " ")
			if help[name] || text == "" {
				t.Errorf("family %s: duplicate or empty # HELP", name)
			}
			help[name] = true
		}
	}
	for fam := range ex.types {
		if !help[fam] {
			t.Errorf("family %s has no # HELP", fam)
		}
	}
}

// TestWriterOmitsAbsentSeries: nil maps and a nil cluster section export
// no series and no family header.
func TestWriterOmitsAbsentSeries(t *testing.T) {
	body := render(t, metrics.Snapshot{})
	for _, fam := range []string{"jacobi_tenant_queued", "jacobi_job_wall_time_milliseconds", "jacobi_cluster_peers_alive"} {
		if strings.Contains(body, fam) {
			t.Errorf("empty snapshot exports %s", fam)
		}
	}
	ex := mustParse(t, body)
	if v, ok := ex.samples["jacobi_jobs_submitted_total"]; !ok || v != 0 {
		t.Errorf("scalar counters must always export; submitted = %v (present %v)", v, ok)
	}
}

// TestLabelEscaping: a tenant name with a tab, a control byte, invalid
// UTF-8, a quote, a backslash and a newline, queued behind a busy worker,
// still leaves /metrics parseable under the text format's three escapes,
// with the invalid byte replaced by U+FFFD.
func TestLabelEscaping(t *testing.T) {
	const tenant = "a\tb\x01\xff\"\\\n"
	svc := service.New(service.Config{Workers: 1})
	srv := httptest.NewServer(httpapi.NewHandler(svc))
	defer func() {
		srv.Close()
		svc.Close()
	}()
	a := matrix.RandomSymmetric(24, rand.New(rand.NewSource(1)))
	ctx := context.Background()
	// The busy job can never converge; Close cancels it.
	if _, err := svc.Submit(ctx, service.JobSpec{Matrix: a, Dim: 1, Tol: 1e-300, MaxSweeps: 50_000_000}); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Submit(ctx, service.JobSpec{Matrix: a, Dim: 1, Tenant: tenant}); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	ex := mustParse(t, string(body))
	key := seriesKey("jacobi_tenant_queued", "tenant", "a\tb\x01\uFFFD\"\\\n")
	if ex.samples[key] != 1 {
		t.Fatalf("%s = %v, want 1; body:\n%s", key, ex.samples[key], body)
	}
}

// TestExpositionFiles checks captured /metrics bodies against the strict
// grammar. It runs only when METRICS_EXPOSITION names the files
// (space-separated), e.g. after a smoke run:
//
//	curl -fs http://ADDR/metrics > /tmp/m.txt
//	METRICS_EXPOSITION=/tmp/m.txt go test -run TestExpositionFiles ./internal/metrics
func TestExpositionFiles(t *testing.T) {
	files := strings.Fields(os.Getenv("METRICS_EXPOSITION"))
	if len(files) == 0 {
		t.Skip("METRICS_EXPOSITION not set")
	}
	for _, f := range files {
		body, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		ex, err := parseText(string(body))
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		if len(ex.samples) == 0 {
			t.Fatalf("%s: no samples", f)
		}
		t.Logf("%s: %d families, %d series", f, len(ex.types), len(ex.samples))
	}
}

// TestParserRejects pins the strict reader itself: each body breaks one
// rule of the text format.
func TestParserRejects(t *testing.T) {
	for _, body := range []string{
		"# TYPE x counter\nx{a=\"\\t\"} 1\n",      // illegal escape
		"# TYPE x counter\nx{a=\"\xff\"} 1\n",     // invalid UTF-8
		"x 1\n",                                   // no # TYPE
		"# TYPE x counter\n# TYPE x gauge\nx 1\n", // two # TYPE lines
		"# TYPE x counter\nx 1\nx 2\n",            // repeated series
		"# TYPE x counter\nx{a=\"1\" 1\n",         // unterminated label set
		"# TYPE x counter\nx 1 2\n",               // trailing field
		"# TYPE x counter\nx one\n",               // bad value
	} {
		if _, err := parseText(body); err == nil {
			t.Errorf("parseText accepted %q", body)
		}
	}
}
