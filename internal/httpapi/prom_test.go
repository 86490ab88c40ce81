package httpapi_test

import (
	"context"
	"fmt"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"

	"repro/client"
	"repro/internal/metrics"
	"repro/internal/service"
)

// parseProm reads Prometheus text-format exposition into a sample map
// keyed by `name` or `name{labels}`, failing on any malformed line.
func parseProm(t *testing.T, body string) map[string]float64 {
	t.Helper()
	samples := make(map[string]float64)
	for _, line := range strings.Split(body, "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		key, val, ok := strings.Cut(line, " ")
		if !ok {
			t.Fatalf("malformed exposition line %q", line)
		}
		f, err := strconv.ParseFloat(val, 64)
		if err != nil {
			t.Fatalf("malformed sample value in %q: %v", line, err)
		}
		samples[key] = f
	}
	return samples
}

// TestPromMetricsAgreeWithSnapshot is the acceptance criterion of the
// /metrics endpoint: under concurrent load every scrape parses as valid
// exposition text, and at quiescence the exported samples agree exactly
// with the JSON snapshot the same service reports.
func TestPromMetricsAgreeWithSnapshot(t *testing.T) {
	svc, srv := newServer(t, service.Config{Workers: 4, ShedHighWater: 64})
	c, err := client.NewHTTP(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()

	// Concurrent submitters (three tenants, a repeated spec for cache
	// hits) race the scrapers below.
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				seed := int64(i % 3) // repeats within and across submitters
				h, err := c.Submit(ctx, client.Spec{
					Random: &client.RandomSpec{N: 16, Seed: seed}, Dim: 1,
					Tenant: fmt.Sprintf("tenant-%d", w%3),
				})
				if err != nil {
					t.Error(err)
					return
				}
				if _, err := h.Wait(ctx); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	scrape := func() map[string]float64 {
		status, body := doReq(t, "GET", srv.URL+"/metrics", nil)
		if status != 200 {
			t.Fatalf("GET /metrics: status %d", status)
		}
		return parseProm(t, string(body))
	}
	for i := 0; i < 5; i++ {
		mid := scrape()
		// Mid-load sanity: the counter exists and never exceeds the total
		// offered load.
		if n := mid["jacobi_jobs_submitted_total"]; n < 0 || n > 40 {
			t.Fatalf("mid-load submitted_total = %v", n)
		}
	}
	wg.Wait()

	// Quiescent: every tagged field's samples agree with the snapshot
	// exactly, except the two clock-derived gauges, which move between
	// the scrape and the snapshot and need only be present.
	got := scrape()
	snap := svc.Metrics()
	want := taggedSamples(snap)
	if len(want) < 28 { // 28 scalar fields today; the maps are empty at quiescence
		t.Fatalf("only %d tagged series in the snapshot", len(want))
	}
	for key, v := range want {
		g, ok := got[key]
		switch {
		case !ok:
			t.Errorf("%s missing from /metrics", key)
		case key == "jacobi_uptime_seconds" || key == "jacobi_jobs_per_sec":
		case g != v:
			t.Errorf("%s = %v, want %v (snapshot)", key, g, v)
		}
	}
	if snap.Submitted != 40 || snap.Completed != 40 {
		t.Fatalf("load did not complete: submitted=%d completed=%d", snap.Submitted, snap.Completed)
	}

	// Histogram invariants: the done-outcome count matches the snapshot,
	// buckets are cumulative and the +Inf bucket equals the count.
	done := snap.Latency["done"]
	if got[`jacobi_job_wall_time_milliseconds_count{outcome="done"}`] != float64(done.Count) {
		t.Errorf("histogram count %v, want %d", got[`jacobi_job_wall_time_milliseconds_count{outcome="done"}`], done.Count)
	}
	if got[`jacobi_job_wall_time_milliseconds_bucket{outcome="done",le="+Inf"}`] != float64(done.Count) {
		t.Error("+Inf bucket != observation count")
	}
	prev := 0.0
	for i, le := range done.BucketMs {
		key := fmt.Sprintf(`jacobi_job_wall_time_milliseconds_bucket{outcome="done",le="%v"}`, le)
		cur, ok := got[key]
		if !ok {
			t.Fatalf("missing bucket %s", key)
		}
		if cur < prev {
			t.Fatalf("bucket %s not cumulative: %v < %v", key, cur, prev)
		}
		if cur != float64(done.BucketCounts[i]) {
			t.Errorf("bucket %s = %v, want %d", key, cur, done.BucketCounts[i])
		}
		prev = cur
	}
}

// taggedSamples lists the counter and gauge series of every prom-tagged
// field of s, keyed as the writer prints them (labels in tag order).
// Histograms are checked separately.
func taggedSamples(s metrics.Snapshot) map[string]float64 {
	out := make(map[string]float64)
	v := reflect.ValueOf(s)
	for i := 0; i < v.NumField(); i++ {
		parts := strings.Split(v.Type().Field(i).Tag.Get("prom"), ",")
		if len(parts) < 2 || parts[1] == "histogram" {
			continue
		}
		key := func(mapKey string) string {
			var labels []string
			for _, kv := range parts[2:] {
				name, value, _ := strings.Cut(kv, "=")
				if value == "*" {
					value = mapKey
				}
				labels = append(labels, fmt.Sprintf("%s=%q", name, value))
			}
			if len(labels) == 0 {
				return parts[0]
			}
			return parts[0] + "{" + strings.Join(labels, ",") + "}"
		}
		f := v.Field(i)
		if f.Kind() == reflect.Map {
			for _, k := range f.MapKeys() {
				out[key(k.String())] = number(f.MapIndex(k))
			}
			continue
		}
		out[key("")] = number(f)
	}
	return out
}

func number(v reflect.Value) float64 {
	if v.CanInt() {
		return float64(v.Int())
	}
	return v.Float()
}
