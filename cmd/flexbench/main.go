// Command flexbench regenerates the tables and figures of the FlexTOE
// paper's evaluation (§5) on the simulated testbed, and runs declarative
// scenario specs — one-shot or as an HTTP job service.
//
// Usage:
//
//	flexbench                 # run everything at quick scale
//	flexbench -full           # paper-scale parameters (slow)
//	flexbench -cores 8        # run independent sweep cells on up to 8 cores
//	flexbench table3 fig11    # run specific experiments
//	flexbench -list           # list experiment ids
//	flexbench run spec.json   # run one scenario spec, canonical result
//	                          # payload on stdout (examples/scenarios/)
//	flexbench serve -addr :8080 -dir jobs -workers 4
//	                          # HTTP job service for the same specs (see
//	                          # internal/scenario/server); a job's result
//	                          # is byte-identical to `flexbench run`
//
// -cores is cell-level only: each cell is one simulation on one engine.
// The output is the same bytes at every core count, apart from the
// "[id completed in …]" timing lines (TestCoresOutputMatchesSerial).
//
// Unknown subcommands or flags print usage on stderr and exit 2; a spec
// that cannot be read, parsed or validated prints the error and exits 1.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"flextoe/internal/experiments"
	"flextoe/internal/scenario"
	"flextoe/internal/scenario/server"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable entry point: it dispatches to the experiment
// runner or the run/serve subcommands and returns the process exit code.
// Usage errors (unknown subcommand, unknown experiment id, bad flags)
// print usage on stderr and return 2, the conventional usage-error code.
func run(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 {
		switch args[0] {
		case "run":
			return runSpec(args[1:], stdout, stderr)
		case "serve":
			return runServe(args[1:], stdout, stderr)
		}
	}
	return runExperiments(args, stdout, stderr)
}

func usage(stderr io.Writer, fs *flag.FlagSet) {
	fmt.Fprintln(stderr, `usage: flexbench [-full] [-cores N] [-list] [experiment ids...]
       flexbench run spec.json
       flexbench serve [-addr host:port] [-dir path] [-workers N]`)
	if fs != nil {
		fs.SetOutput(stderr)
		fs.PrintDefaults()
	}
}

func runExperiments(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("flexbench", flag.ContinueOnError)
	fs.SetOutput(io.Discard) // we print usage ourselves, once
	full := fs.Bool("full", false, "run at paper-scale parameters (slow)")
	cores := fs.Int("cores", 1, "max cores for cell-level parallelism (independent sweep cells; one engine each)")
	list := fs.Bool("list", false, "list experiment identifiers")
	if err := fs.Parse(args); err != nil {
		fmt.Fprintln(stderr, err)
		usage(stderr, fs)
		return 2
	}

	if *list {
		for _, r := range experiments.All() {
			fmt.Fprintf(stdout, "%-8s %s\n", r.ID, r.Desc)
		}
		return 0
	}

	scale := experiments.Quick
	if *full {
		scale = experiments.Full
	}
	scale.Cores = *cores

	runners := experiments.All()
	if rest := fs.Args(); len(rest) > 0 {
		runners = runners[:0]
		for _, id := range rest {
			r, ok := experiments.ByID(id)
			if !ok {
				fmt.Fprintf(stderr, "unknown subcommand or experiment %q (try -list)\n", id)
				usage(stderr, nil)
				return 2
			}
			runners = append(runners, r)
		}
	}

	for _, r := range runners {
		start := time.Now()
		tables := r.Run(scale)
		for _, t := range tables {
			fmt.Fprintln(stdout, t.Format())
		}
		fmt.Fprintf(stdout, "[%s completed in %v]\n\n", r.ID, time.Since(start).Round(time.Millisecond))
	}
	return 0
}

// runSpec is the one-shot scenario entry point: the same scenario.Run the
// job service calls, with the canonical result payload on stdout.
func runSpec(args []string, stdout, stderr io.Writer) int {
	if len(args) != 1 {
		fmt.Fprintf(stderr, "run takes exactly one spec file (got %d arguments)\n", len(args))
		usage(stderr, nil)
		return 2
	}
	data, err := os.ReadFile(args[0])
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	res, err := scenario.Run(data, nil)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	if _, err := stdout.Write(res.Canonical()); err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	return 0
}

func runServe(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("flexbench serve", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	addr := fs.String("addr", "localhost:8080", "listen address")
	dir := fs.String("dir", "scenario-jobs", "job persistence directory (empty disables persistence)")
	workers := fs.Int("workers", 0, "worker pool width (0 or above GOMAXPROCS clamps to GOMAXPROCS)")
	if err := fs.Parse(args); err != nil {
		fmt.Fprintln(stderr, err)
		usage(stderr, fs)
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "serve takes no positional arguments (got %q)\n", fs.Args()[0])
		usage(stderr, fs)
		return 2
	}
	srv, err := server.New(server.Config{Dir: *dir, Workers: *workers, Log: stderr})
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	fmt.Fprintf(stdout, "flexbench scenario service listening on %s (workers=%d, dir=%q)\n",
		ln.Addr(), srv.Workers(), *dir)
	// SIGINT or SIGTERM stops accepting, lets running jobs finish and
	// their responses drain, and exits 0; queued jobs stay persisted for
	// the next server. Serve returns as soon as Shutdown begins, so the
	// exit waits for Shutdown to finish.
	hs := &http.Server{Handler: srv}
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	shut := make(chan error, 1)
	go func() {
		<-sig
		srv.Close()
		shut <- hs.Shutdown(context.Background())
	}()
	if err := hs.Serve(ln); err != http.ErrServerClosed {
		fmt.Fprintln(stderr, err)
		return 1
	}
	if err := <-shut; err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	return 0
}
