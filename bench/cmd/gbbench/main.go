// Command gbbench is the repository benchmark.
//
//	gbbench --workload W --seed N --seconds S --trace 0|1
//	    one run of one workload (what the driver runs): every metric printed
//	    by name with its unit, then the result object on the last line
//	gbbench -suite [-seeds 1,2] [-out file.json]
//	    every workload in its own child process, untraced per seed plus one
//	    traced run; writes a result file
//	gbbench -compare a.json b.json    regression table against the bounds
//	gbbench -trend bench/trajectory   medians over the kept result files
//	gbbench -print-spec               BENCHMARK.json from the metric tables
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"

	"gossipbnb/bench/gb"
)

func main() {
	var o gb.Options
	flag.StringVar(&o.Workload, "workload", "", "workload to run (one of BENCHMARK.json's)")
	flag.Int64Var(&o.Seed, "seed", gb.DefaultSeed, "base of every generator seed")
	flag.Float64Var(&o.Seconds, "seconds", gb.RunSeconds, "how long one run measures")
	trace := flag.Int("trace", 0, "1 = traced run printing the per-layer metrics")
	flag.StringVar(&o.TraceOut, "trace-out", "", "write the traced run's spans to this JSONL file")
	tiny := flag.Bool("tiny", false, "smoke-test sizes")
	full := flag.Bool("full", false, "add sample counts to the result line (suite children)")
	suite := flag.Bool("suite", false, "run every workload and write a result file")
	seeds := flag.String("seeds", strconv.Itoa(gb.DefaultSeed), "suite: comma-separated seeds, one untraced run each")
	only := flag.String("workloads", "", "suite: comma-separated subset (default all)")
	label := flag.String("label", "run", "suite: label stored in the result file")
	out := flag.String("out", "", "suite: result file to write")
	compare := flag.Bool("compare", false, "compare two result files: gbbench -compare a.json b.json")
	spec := flag.String("spec", "BENCHMARK.json", "compare: where the bounds come from")
	trend := flag.String("trend", "", "print the trajectory table over this directory of result files")
	printSpec := flag.Bool("print-spec", false, "print BENCHMARK.json")
	flag.Parse()

	// The benchmark is defined at one processor per core.
	runtime.GOMAXPROCS(runtime.NumCPU())
	o.Trace = *trace != 0
	o.Sizes = gb.FullSizes
	if *tiny {
		o.Sizes = gb.TinySizes
	}
	o.Log = os.Stdout

	switch {
	case *printSpec:
		b, err := gb.BenchmarkJSON()
		check(err)
		os.Stdout.Write(b)
	case *trend != "":
		check(gb.Trend(os.Stdout, *trend))
	case *compare:
		if flag.NArg() != 2 {
			check(fmt.Errorf("-compare wants two result files"))
		}
		a, err := gb.ReadFile(flag.Arg(0))
		check(err)
		b, err := gb.ReadFile(flag.Arg(1))
		check(err)
		bounds, err := gb.Bounds(*spec)
		check(err)
		if n := gb.Compare(os.Stdout, a, b, bounds); n > 0 {
			fmt.Printf("%d regressions\n", n)
			os.Exit(2)
		}
	case *suite:
		exe, err := os.Executable()
		check(err)
		so := gb.SuiteOptions{Exe: exe, Label: *label, Seconds: o.Seconds, Tiny: *tiny, Log: os.Stdout}
		for _, s := range strings.Split(*seeds, ",") {
			n, err := strconv.ParseInt(strings.TrimSpace(s), 10, 64)
			check(err)
			so.Seeds = append(so.Seeds, n)
		}
		if *only != "" {
			so.Workloads = strings.Split(*only, ",")
		}
		f, err := gb.RunSuite(so)
		check(err)
		if *out != "" {
			check(f.WriteFile(*out))
		}
		for _, w := range f.Workloads {
			if w.Failed > 0 {
				os.Exit(2)
			}
		}
	case o.Workload != "":
		res, err := gb.Run(o)
		check(err)
		if *full {
			fmt.Println(res.FullLine())
		} else {
			fmt.Println(res.Line())
		}
		if !res.Correct {
			os.Exit(2)
		}
	default:
		flag.Usage()
		os.Exit(1)
	}
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "gbbench:", err)
		os.Exit(1)
	}
}
