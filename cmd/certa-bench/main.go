// Command certa-bench regenerates the tables and figures of the CERTA
// paper's evaluation (§5). Each experiment is addressed by its paper
// artifact id:
//
//	certa-bench -exp table2            # Faithfulness grid
//	certa-bench -exp figure11          # triangle-count sweep
//	certa-bench -exp all               # everything, in paper order
//	certa-bench -list                  # show available experiments
//
// The synthetic benchmarks are scaled down by default so the full grid
// runs in minutes; -records/-matches/-pairs control the scale and
// -triangles sets CERTA's τ.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"certa/internal/debugserve"
	"certa/internal/eval"
	"certa/internal/matchers"
	"certa/internal/telemetry"
)

func main() {
	var (
		exp         = flag.String("exp", "all", "experiment id (table1..table9, figure2..figure12) or \"all\"")
		list        = flag.Bool("list", false, "list available experiments and exit")
		seed        = flag.Int64("seed", 7, "global random seed")
		records     = flag.Int("records", 0, "max records per source (0 = default)")
		matches     = flag.Int("matches", 0, "max matching pairs (0 = default)")
		pairs       = flag.Int("pairs", 0, "explained test pairs per (dataset, model) cell (0 = default)")
		triangles   = flag.Int("triangles", 0, "CERTA triangle budget τ (0 = default 100)")
		datasets    = flag.String("datasets", "", "comma-separated dataset codes (default: all 12)")
		models      = flag.String("models", "", "comma-separated models: DeepER,DeepMatcher,Ditto")
		parallelism = flag.Int("parallelism", 1, "concurrent grid cells")
		quick       = flag.Bool("quick", false, "tiny profile (for smoke runs)")
		report      = flag.String("report", "", "write a markdown paper-vs-measured report (all experiments) to this file")
		pprofAddr   = flag.String("pprof-addr", "", "serve net/http/pprof on this auxiliary address while the run executes (empty = disabled)")
	)
	flag.Parse()

	if *pprofAddr != "" {
		bound, err := debugserve.Start(*pprofAddr, telemetry.Default.Handler())
		if err != nil {
			fmt.Fprintf(os.Stderr, "certa-bench: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "certa-bench: pprof endpoints on http://%s/debug/pprof/ (metrics at /v1/metrics)\n", bound)
	}

	if *list {
		for _, e := range eval.Experiments() {
			fmt.Printf("  %-10s %s\n", e.ID, e.Title)
		}
		return
	}

	cfg := eval.Config{
		Seed:         *seed,
		MaxRecords:   *records,
		MaxMatches:   *matches,
		ExplainPairs: *pairs,
		Triangles:    *triangles,
		Parallelism:  *parallelism,
		Quick:        *quick,
	}
	if *datasets != "" {
		cfg.Datasets = strings.Split(*datasets, ",")
	}
	if *models != "" {
		for _, m := range strings.Split(*models, ",") {
			cfg.Models = append(cfg.Models, matchers.Kind(m))
		}
	}

	h := eval.NewHarness(cfg)
	start := time.Now()

	if *report != "" {
		f, err := os.Create(*report)
		if err != nil {
			fmt.Fprintf(os.Stderr, "certa-bench: %v\n", err)
			os.Exit(1)
		}
		if err := h.WriteReport(f); err != nil {
			fmt.Fprintf(os.Stderr, "certa-bench: %v\n", err)
			os.Exit(1)
		}
		if err := f.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "certa-bench: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "certa-bench: report written to %s in %s\n", *report, time.Since(start).Round(time.Millisecond))
		return
	}

	var err error
	if *exp == "all" {
		err = h.RunAll(os.Stdout)
	} else {
		var tables []*eval.Table
		tables, err = h.Run(*exp)
		for _, t := range tables {
			if rerr := t.Render(os.Stdout); rerr != nil && err == nil {
				err = rerr
			}
		}
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "certa-bench: %v\n", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "certa-bench: done in %s\n", time.Since(start).Round(time.Millisecond))
}
