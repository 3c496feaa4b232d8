// Command cpi2bench runs the declarative capacity-check harness:
//
//	cpi2bench check    runs every case declared for this host's machine
//	                   class under checks/ and writes one
//	                   schema-versioned VERDICT_<class>__<case>.json per
//	                   case; exits 1 when any budget fails.
//
// The machine class is auto-selected as the most demanding class whose
// min_cpus the host satisfies; -class overrides.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"

	"repro/internal/checks"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("cpi2bench: ")
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	switch os.Args[1] {
	case "check":
		runCheck(os.Args[2:])
	case "-h", "-help", "--help", "help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "cpi2bench: unknown mode %q\n\n", os.Args[1])
		usage()
		os.Exit(2)
	}
}

func usage() {
	fmt.Fprint(os.Stderr, `usage:
  cpi2bench check [-checks DIR] [-class NAME] [-case NAME] [-out DIR] [-workers N] [-q]
`)
}

func runCheck(args []string) {
	fs := flag.NewFlagSet("check", flag.ExitOnError)
	checksDir := fs.String("checks", "checks", "checks tree root")
	className := fs.String("class", "", "machine class to run (default: auto-select by CPU count)")
	caseName := fs.String("case", "", "run only this case (default: all cases of the class)")
	outDir := fs.String("out", ".", "directory for verdict JSON files")
	workers := fs.Int("workers", 0, "cluster worker count (0: GOMAXPROCS)")
	quiet := fs.Bool("q", false, "suppress progress output (verdict summaries still print)")
	fs.Parse(args)

	tree, err := checks.LoadTree(*checksDir)
	if err != nil {
		log.Fatal(err)
	}
	var cl *checks.Class
	if *className != "" {
		cl = tree.Classes[*className]
		if cl == nil {
			log.Fatalf("unknown machine class %q (have %v)", *className, tree.Order)
		}
	} else if cl, err = tree.SelectClass(runtime.NumCPU()); err != nil {
		log.Fatal(err)
	}
	if cl.Machine.GOMAXPROCS > 0 {
		runtime.GOMAXPROCS(cl.Machine.GOMAXPROCS)
	}
	opts := checks.RunOptions{Workers: *workers}
	if !*quiet {
		opts.Log = log.Printf
	}
	log.Printf("class %s (%d cases, GOMAXPROCS %d)", cl.Machine.Name, len(cl.Cases), runtime.GOMAXPROCS(0))

	ran, failed := 0, 0
	for _, cs := range cl.Cases {
		if *caseName != "" && cs.Name != *caseName {
			continue
		}
		v, err := checks.RunCase(cl.Machine, cs, opts)
		if err != nil {
			log.Fatal(err)
		}
		path, err := v.WriteFile(*outDir)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%s -> %s\n", v.Summary(), path)
		ran++
		if !v.Pass {
			failed++
		}
	}
	if ran == 0 {
		log.Fatalf("no case matched -case %q in class %s", *caseName, cl.Machine.Name)
	}
	if failed > 0 {
		log.Fatalf("%d of %d cases failed", failed, ran)
	}
}
