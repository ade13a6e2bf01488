package engine

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"spotlight/internal/eval"
)

var updateDigests = flag.Bool("update-digests", false, "rewrite testdata/search_digests.golden with current output")

// goldenRuns are the searches whose results are pinned: every strategy
// at 4 HW × 6 SW, and the four Spotlight variants again at 4 HW × 16 SW,
// which runs daBO_SW past its 8-observation warmup so the software
// features and the surrogate ranking reach the digest too.
var goldenRuns = []struct {
	strategy string
	sw       int
}{
	{"spotlight", 6}, {"spotlight-v", 6}, {"spotlight-a", 6}, {"spotlight-f", 6},
	{"random", 6}, {"ga", 6}, {"confuciux", 6}, {"hasco", 6},
	{"spotlight", 16}, {"spotlight-v", 16}, {"spotlight-a", 16}, {"spotlight-f", 16},
}

// searchDigest is the SHA-256 of what a search produced: its history CSV
// without the wall-clock elapsed_s column, followed by its design JSON.
// A search that fails hashes its error text instead.
func searchDigest(t *testing.T, strategy string, swSamples int) string {
	t.Helper()
	pipe, err := eval.FromSpec("maestro", eval.SpecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	spec := JobSpec{
		Models:    []string{"MobileNetV2"},
		Scale:     "edge",
		Strategy:  strategy,
		HWSamples: 4,
		SWSamples: swSamples,
		Seed:      7,
		Workers:   1,
	}
	res, err := RunSearch(context.Background(), spec, SearchOptions{Eval: pipe})
	h := sha256.New()
	if err != nil {
		fmt.Fprintf(h, "error: %v\n", err)
		return hex.EncodeToString(h.Sum(nil))
	}
	for _, line := range strings.Split(strings.TrimSpace(string(HistoryCSV(res))), "\n") {
		cols := strings.Split(line, ",")
		fmt.Fprintln(h, strings.Join(append(cols[:1:1], cols[2:]...), ","))
	}
	design, err := DesignJSON(res, res.Config.Objective)
	if err != nil {
		t.Fatal(err)
	}
	h.Write(design)
	return hex.EncodeToString(h.Sum(nil))
}

// TestSearchDigestsGolden pins the exact results of small fixed-seed
// maestro searches (MobileNetV2, edge, seed 7, see goldenRuns).
// The relative determinism gates (batched vs unbatched, traced vs
// untraced, cold vs warm cache) compare two runs of the same build, so a
// refactor that changes RNG consumption or float evaluation order on
// both sides passes them; this absolute check catches it. Update only
// for an intended change of results, with the reason stated in
// CHANGES.md:
//
//	go test ./internal/engine -run SearchDigestsGolden -update-digests
func TestSearchDigestsGolden(t *testing.T) {
	var got bytes.Buffer
	for _, r := range goldenRuns {
		fmt.Fprintf(&got, "%s sw=%d %s\n", r.strategy, r.sw, searchDigest(t, r.strategy, r.sw))
	}
	path := filepath.Join("testdata", "search_digests.golden")
	if *updateDigests {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (regenerate with -update-digests)", err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("search digests changed:\ngot:\n%s\nwant:\n%s", got.Bytes(), want)
	}
}

// csvRuns are the experiment artifacts whose bytes are pinned: the
// same reduced-scale figures the CLI writes with
//
//	experiments -fig N -models MobileNetV2 -hw 4 -sw 6 -trials 1 -eval E
//
// fig6 on both the analytical and the trace-driven backend, fig10 on
// the analytical one, and fig6 again through the memo cache, which is
// trajectory-neutral and so must pin the same bytes as the uncached
// run. fig10's wall-clock elapsed_s column is dropped before hashing.
var csvRuns = []struct {
	step, eval string
}{
	{"fig6", "maestro"}, {"fig6", "sim"}, {"fig10", "maestro"}, {"fig6", "maestro,cache"},
}

// TestExperimentCSVDigestsGolden pins the SHA-256 of each csvRuns
// artifact, the absolute counterpart of the CLI smoke gates that compare
// two runs of one build. Update only for an intended change of results,
// with the reason stated in CHANGES.md:
//
//	go test ./internal/engine -run ExperimentCSVDigestsGolden -update-digests
func TestExperimentCSVDigestsGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("fig6 on sim takes seconds")
	}
	var got bytes.Buffer
	digests := map[string]string{} // by artifact name and eval spec
	for _, r := range csvRuns {
		spec := JobSpec{
			Kind:      KindExperiment,
			Steps:     []string{r.step},
			Models:    []string{"MobileNetV2"},
			HWSamples: 4,
			SWSamples: 6,
			Trials:    1,
			Seed:      1,
			Eval:      r.eval,
		}
		results, err := RunExperiments(context.Background(), spec, ExperimentOptions{
			Eval: testPipeline(t, r.eval),
		})
		if err != nil {
			t.Fatalf("%s on %s: %v", r.step, r.eval, err)
		}
		for _, a := range results[0].Artifacts {
			d := csvDigest(a.Data)
			digests[a.Name+" eval="+r.eval] = d
			fmt.Fprintf(&got, "%s eval=%s %s\n", a.Name, r.eval, d)
		}
	}
	if cached, bare := digests["fig6.csv eval=maestro,cache"], digests["fig6.csv eval=maestro"]; cached != bare {
		t.Errorf("fig6 through the memo cache digests to %s, uncached to %s", cached, bare)
	}
	path := filepath.Join("testdata", "csv_digests.golden")
	if *updateDigests {
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (regenerate with -update-digests)", err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("experiment CSV digests changed:\ngot:\n%s\nwant:\n%s", got.Bytes(), want)
	}
}

// csvDigest is the SHA-256 of a CSV with any elapsed_s column removed.
func csvDigest(data []byte) string {
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	drop := -1
	for i, name := range strings.Split(lines[0], ",") {
		if name == "elapsed_s" {
			drop = i
		}
	}
	h := sha256.New()
	for _, line := range lines {
		cols := strings.Split(line, ",")
		if drop >= 0 {
			cols = append(cols[:drop:drop], cols[drop+1:]...)
		}
		fmt.Fprintln(h, strings.Join(cols, ","))
	}
	return hex.EncodeToString(h.Sum(nil))
}
