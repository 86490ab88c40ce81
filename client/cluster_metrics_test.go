package client_test

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"repro/client"
	"repro/internal/cluster"
)

// TestClusterMetricsAgree: after routed submits, each node's cluster
// section of GET /api/v2/metrics and its {node="<id>"} series on GET
// /metrics agree field for field, and every series (the service's and the
// node's) appears exactly once per scrape.
func TestClusterMetricsAgree(t *testing.T) {
	ids := []string{"a", "b", "c"}
	ring := cluster.NewRing(ids, 0)
	nodes := startCluster(t, ids)
	cli, err := client.NewHTTP(nodes["a"].srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	ctx := context.Background()
	// One job per owner, all entering through a: a serves its own and
	// proxies the other two.
	for i, owner := range ids {
		spec := client.Spec{Random: &client.RandomSpec{N: 16, Seed: int64(i)}, Dim: 1,
			IdempotencyKey: keyOwnedBy(t, ring, owner, "cm-"+owner)}
		h, err := cli.Submit(ctx, spec)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := h.Wait(ctx); err != nil {
			t.Fatal(err)
		}
	}

	get := func(url string) []byte {
		t.Helper()
		resp, err := http.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: %d %v", url, resp.StatusCode, err)
		}
		return body
	}
	section := func(base string) *client.ClusterMetrics {
		t.Helper()
		var m client.Metrics
		if err := json.Unmarshal(get(base+"/api/v2/metrics"), &m); err != nil {
			t.Fatal(err)
		}
		if m.Cluster == nil {
			t.Fatal("cluster node serves no cluster section")
		}
		return m.Cluster
	}

	for _, id := range ids {
		base := nodes[id].srv.URL
		// The health prober and steal loop keep running, so the scrape is
		// bracketed by two JSON reads: every counter lies between them.
		before := section(base)
		body := string(get(base + "/metrics"))
		after := section(base)
		if before.NodeID != id {
			t.Fatalf("node %s reports node_id %q", id, before.NodeID)
		}

		seen := make(map[string]int)
		samples := make(map[string]float64)
		types := make(map[string]int)
		for _, line := range strings.Split(strings.TrimSuffix(body, "\n"), "\n") {
			if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
				name, _, _ := strings.Cut(rest, " ")
				types[name]++
				continue
			}
			if strings.HasPrefix(line, "#") {
				continue
			}
			key, val, _ := strings.Cut(line, " ")
			v, err := strconv.ParseFloat(val, 64)
			if err != nil {
				t.Fatalf("node %s: bad sample %q", id, line)
			}
			seen[key]++
			samples[key] = v
		}
		for key, n := range seen {
			if n != 1 {
				t.Errorf("node %s: series %s appears %d times", id, key, n)
			}
		}
		for name, n := range types {
			if n != 1 {
				t.Errorf("node %s: family %s has %d # TYPE lines", id, name, n)
			}
		}
		if _, ok := samples["jacobi_jobs_submitted_total"]; !ok {
			t.Errorf("node %s: service series missing from the cluster scrape", id)
		}

		typ := reflect.TypeOf(*before)
		lo, hi := reflect.ValueOf(*before), reflect.ValueOf(*after)
		exported := 0
		for i := 0; i < typ.NumField(); i++ {
			parts := strings.Split(typ.Field(i).Tag.Get("prom"), ",")
			if len(parts) < 2 || parts[1] == "label" {
				continue
			}
			exported++
			key := fmt.Sprintf("%s{node=%q}", parts[0], id)
			got, ok := samples[key]
			a, b := float64(lo.Field(i).Int()), float64(hi.Field(i).Int())
			if !ok || got < min(a, b) || got > max(a, b) {
				t.Errorf("node %s: %s = %v (present %v), JSON says %v..%v", id, key, got, ok, a, b)
			}
		}
		if exported != 18 {
			t.Errorf("node %s: %d tagged cluster fields checked, want 18", id, exported)
		}
	}
	if m := section(nodes["a"].srv.URL); m.RoutedLocal < 1 || m.RoutedProxied < 2 {
		t.Errorf("entry node a routed %d local / %d proxied, want >= 1 / >= 2", m.RoutedLocal, m.RoutedProxied)
	}
}
