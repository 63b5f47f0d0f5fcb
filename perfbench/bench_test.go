package main

import (
	"encoding/json"
	"os"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// contract is BENCHMARK.json, the list of metrics every run must print.
type contract struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []struct {
		Name, Unit string
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit string
	} `json:"per_layer"`
}

func readContract(t *testing.T) contract {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var c contract
	if err := json.Unmarshal(b, &c); err != nil {
		t.Fatal(err)
	}
	return c
}

// testSeed is the README's default seed.
const testSeed = 1

func runSmall(t *testing.T, name string, seed, worldSeed int64, traced bool, tp tamper) result {
	t.Helper()
	w, ok := lookupWorkload(name)
	if !ok {
		t.Fatalf("no workload %s", name)
	}
	res, err := execute(runConfig{workload: w.small(), seed: seed, worldSeed: worldSeed, seconds: 1, traced: traced, dir: t.TempDir(), tamper: tp})
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return res
}

func checkMetrics(t *testing.T, res result, want []struct{ Name, Unit string }) {
	t.Helper()
	if len(res.metrics) != len(want) {
		t.Errorf("%d metrics, want %d", len(res.metrics), len(want))
	}
	for _, m := range want {
		got, ok := res.metrics[m.Name]
		if !ok || got.Unit != m.Unit {
			t.Errorf("metric %s: got %+v (present %v), want unit %s", m.Name, got, ok, m.Unit)
		}
	}
}

// Every workload runs end to end at small size with every check passing,
// no failed operation, and exactly the end-to-end metrics BENCHMARK.json
// names, none of them zero.
func TestWorkloadsPassTheirChecks(t *testing.T) {
	c := readContract(t)
	if len(c.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark %d", len(c.Workloads), len(workloads))
	}
	for _, cw := range c.Workloads {
		t.Run(cw.Name, func(t *testing.T) {
			res := runSmall(t, cw.Name, testSeed, defaultWorldSeed, false, tamper{})
			if !res.correct || res.failed != 0 || res.attempted == 0 {
				t.Fatalf("correct=%v attempted=%d failed=%d: %v", res.correct, res.attempted, res.failed, res.checkFailures)
			}
			checkMetrics(t, res, c.EndToEnd)
			for name, m := range res.metrics {
				if !(m.Value > 0) {
					t.Errorf("%s = %v, want > 0", name, m.Value)
				}
			}
		})
	}
}

// A traced run prints every per-layer metric BENCHMARK.json names, and
// writes its spans.
func TestTracedRunReportsEveryLayer(t *testing.T) {
	c := readContract(t)
	res := runSmall(t, "crowd-hot", testSeed, defaultWorldSeed, true, tamper{})
	if !res.correct || res.failed != 0 {
		t.Fatalf("correct=%v failed=%d: %v", res.correct, res.failed, res.checkFailures)
	}
	checkMetrics(t, res, c.PerLayer)
	recorded := map[string]int{}
	for _, s := range res.trace.spans {
		recorded[s.Name]++
	}
	for _, name := range []string{"client", "api", "shop", "store.add_all", "aggregate.fold", "replica.apply"} {
		if recorded[name] == 0 {
			t.Errorf("no %s spans recorded", name)
		}
	}
	if err := res.trace.writeFile(t.TempDir() + "/trace.jsonl"); err != nil {
		t.Fatal(err)
	}
}

// Each check bites: corrupting one output makes the run incorrect, with
// the matching message.
func TestChecksCatchCorruptOutputs(t *testing.T) {
	for _, tc := range []struct {
		name string
		tp   tamper
		want *regexp.Regexp
	}{
		// Only the per-vantage-point comparison names a vantage point and
		// an OK price it rejects.
		{"wrong vantage point price", tamper{vpPrice: true}, regexp.MustCompile(`^check http://\S+ at [a-z]+-[a-z-]+: got \d+ [A-Z]{3} ok=true \(\), want \d+ [A-Z]{3}$`)},
		{"dropped crawl row", tamper{dropCrawlRow: true}, regexp.MustCompile(`^crawl stored \d+ distinct rows, want \d+$`)},
		{"dropped export row", tamper{dropExportRow: true}, regexp.MustCompile(`^export yielded \d+ rows`)},
		{"flipped byte in the follower", tamper{flipFollowerByte: true}, regexp.MustCompile(`^follower's JSONL differs`)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			res := runSmall(t, "crowd-paper", testSeed, defaultWorldSeed, false, tc.tp)
			if res.correct {
				t.Fatal("corrupted output passed the checks")
			}
			if !slices.ContainsFunc(res.checkFailures, tc.want.MatchString) {
				t.Errorf("failures %q: none matches %s", res.checkFailures, tc.want)
			}
		})
	}
}

// A known program defect, left standing: when a crawled retailer got no
// crowd check, core.World.EnsureAnchors highlights a product's price
// without looking for the same text elsewhere on the page, so in the
// world of seed 4, with the inputs of seed 4 at small size,
// extract.Derive anchors www.energie.it on a recommended
// product's price and every crawl row of that domain carries the other
// product's price (CHANGES.md, FOUND). This test fails once the defect is
// mended; it should then expect the run to pass.
func TestKnownDefectRecommendationAnchor(t *testing.T) {
	res := runSmall(t, "crawl-archive", 4, 4, false, tamper{})
	if res.correct {
		t.Fatal("crawl-archive seed 4 passed: the recommendation-anchor defect looks mended")
	}
	for _, f := range res.checkFailures {
		if !strings.HasPrefix(f, "crawl row {www.energie.it ") {
			t.Errorf("failure outside the known defect: %s", f)
		}
	}
}
