// Pipetrace attaches the pipeline flight recorder to a two-thread run and
// asks it the question the end-of-run AVF report cannot answer: *which
// instructions* made the instruction queue vulnerable? The recorder
// samples a 20k-cycle window mid-run (skipping cold start), then the
// provenance pass attributes every ACE bit-cycle in the window to the
// static instruction that occupied the entry — the top-10 IQ contributors
// print below, alongside the fate breakdown and the trace exports the
// same recording feeds (Konata / chrome://tracing).
package main

import (
	"fmt"
	"log"

	"smtavf"
)

func main() {
	cfg := smtavf.DefaultConfig(2)

	// A memory-bound thread (mcf) next to a compute-bound one (gcc): the
	// classic SMT vulnerability pairing — mcf's stalled instructions sit
	// in the shared structures, accumulating ACE bit-cycles.
	// Record only uops fetched in cycles [10k, 30k): a 20k-cycle window
	// past the cold-start transient. Long sweeps sample the same way
	// instead of buffering millions of records.
	rec := smtavf.NewPipeTrace(smtavf.PipeTraceOptions{
		WindowStart: 10_000,
		WindowEnd:   30_000,
	})
	sim, err := smtavf.New(cfg,
		smtavf.WithBenchmarks("mcf", "gcc"),
		smtavf.WithPipeTrace(rec))
	if err != nil {
		log.Fatal(err)
	}

	res, err := sim.Run(120_000)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("run: %d cycles, %d instructions, IQ AVF %.2f%%\n",
		res.Cycles, res.Total, 100*res.StructAVF(smtavf.IQ))
	fmt.Printf("flight recording: %d uops fetched in cycles [10k, 30k)\n\n", rec.Len())

	// The provenance report: which static instructions the recorded IQ
	// ACE bit-cycles came from, and the fate of all recorded residency.
	prov := rec.Provenance()
	fmt.Print(prov.FormatHotspots(smtavf.IQ, 10))
	fmt.Println()
	fmt.Print(prov.FormatFates())

	// The same recording exports as pipeline-viewer traces: run.kanata
	// opens in Konata, run.json in chrome://tracing or Perfetto.
	for _, path := range []string{"run.kanata", "run.json"} {
		if err := rec.WriteFile(path); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("\nwrote %s", path)
	}
	fmt.Println()
}
