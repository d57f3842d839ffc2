// Command fsdm is a small CLI for the FSDM library:
//
//	fsdm sql [flags]            read SQL from stdin, one statement per
//	                            line (lines may be continued with a
//	                            trailing backslash), print results
//	fsdm dataguide FILE...      print the DataGuide implied by JSON files
//	fsdm encode FILE...         compare JSON/BSON/OSON encoding sizes
//
// The SQL shell runs against a fresh in-memory database; pipe a script:
//
//	fsdm sql <<'EOF'
//	create table t (id number, jdoc varchar2(4000) check (jdoc is json));
//	insert into t values (1, '{"a":{"b":[1,2,3]}}');
//	select json_query(jdoc, '$.a.b') from t;
//	EOF
//
// Observability flags of the sql subcommand (docs/OBSERVABILITY.md):
//
//	-debug-addr addr            serve /debug/fsdmmetrics (JSON metrics),
//	                            /debug/vars and /debug/pprof on addr
//	-slow-query-log FILE        log statements at or above the threshold
//	                            ("stderr" to log to standard error)
//	-slow-query-threshold dur   slow-statement latency threshold
//	                            (default 100ms)
//	-plan-cache n               LRU plan cache capacity; 0 disables
//	                            caching (every statement hard-parses)
package main

import (
	"bufio"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"text/tabwriter"
	"time"

	"repro/internal/bson"
	"repro/internal/dataguide"
	"repro/internal/jsondom"
	"repro/internal/jsontext"
	"repro/internal/oson"
	"repro/internal/sqlengine"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	switch os.Args[1] {
	case "sql":
		runSQL(os.Args[2:])
	case "dataguide":
		runDataGuide(os.Args[2:])
	case "encode":
		runEncode(os.Args[2:])
	default:
		usage()
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: fsdm sql [flags] | fsdm dataguide FILE... | fsdm encode FILE...")
	os.Exit(2)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "fsdm:", err)
	os.Exit(1)
}

func runSQL(args []string) {
	fs := flag.NewFlagSet("fsdm sql", flag.ExitOnError)
	debugAddr := fs.String("debug-addr", "", "serve /debug/fsdmmetrics, /debug/vars and /debug/pprof on this address")
	slowLog := fs.String("slow-query-log", "", `write slow-query entries to this file ("stderr" for standard error)`)
	slowThreshold := fs.Duration("slow-query-threshold", 100*time.Millisecond, "latency at or above which a statement is logged")
	planCache := fs.Int("plan-cache", 128, "LRU plan cache capacity; 0 disables caching")
	fs.Parse(args) //nolint:errcheck // ExitOnError

	eng := sqlengine.New()
	eng.SetPlanCacheSize(*planCache)
	if *slowLog != "" {
		var w io.Writer = os.Stderr
		if *slowLog != "stderr" {
			f, err := os.OpenFile(*slowLog, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
			if err != nil {
				fatal(err)
			}
			defer f.Close() //nolint:errcheck
			w = f
		}
		eng.SetSlowQueryLog(w, *slowThreshold)
	}
	if *debugAddr != "" {
		//fsdmvet:ignore leakcheck process-lifetime debug daemon; the HTTP server dies with the REPL, there is no Close to join it on
		go func() {
			if err := serveDebug(*debugAddr); err != nil {
				fmt.Fprintln(os.Stderr, "fsdm: debug server:", err)
			}
		}()
		fmt.Fprintf(os.Stderr, "fsdm: debug endpoint on http://%s/debug/fsdmmetrics\n", *debugAddr)
	}
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<24)
	var pending strings.Builder
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if trimmed := strings.TrimSpace(line); trimmed == "" || strings.HasPrefix(trimmed, "--") {
			continue
		}
		if strings.HasSuffix(line, "\\") {
			pending.WriteString(strings.TrimSuffix(line, "\\"))
			pending.WriteString("\n")
			continue
		}
		pending.WriteString(line)
		stmt := pending.String()
		pending.Reset()
		// Ctrl-C aborts the running statement (cooperative
		// cancellation through the execution context), not the shell.
		ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
		res, err := eng.ExecContext(ctx, stmt)
		stop()
		if errors.Is(err, sqlengine.ErrQueryCancelled) {
			fmt.Fprintf(os.Stderr, "line %d: interrupted\n", lineNo)
			continue
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "line %d: %v\n", lineNo, err)
			os.Exit(1)
		}
		printResult(res)
	}
	if err := sc.Err(); err != nil {
		fatal(err)
	}
}

func printResult(res *sqlengine.Result) {
	if len(res.Columns) == 0 {
		fmt.Println("ok")
		return
	}
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, strings.Join(res.Columns, "\t"))
	for _, row := range res.Rows {
		cells := make([]string, len(row))
		for i, v := range row {
			cells[i] = renderDatum(v)
		}
		fmt.Fprintln(w, strings.Join(cells, "\t"))
	}
	w.Flush() //nolint:errcheck
	fmt.Printf("(%d rows)\n", len(res.Rows))
}

func renderDatum(v jsondom.Value) string {
	switch t := v.(type) {
	case jsondom.Null:
		return "NULL"
	case jsondom.String:
		return string(t)
	default:
		return jsontext.SerializeString(v)
	}
}

func runDataGuide(files []string) {
	if len(files) == 0 {
		usage()
	}
	g := dataguide.New()
	for _, f := range files {
		text, err := os.ReadFile(f)
		if err != nil {
			fatal(err)
		}
		if _, err := g.AddText(text); err != nil {
			fatal(fmt.Errorf("%s: %w", f, err))
		}
	}
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "path\ttype\tfrequency\tmax length")
	for _, e := range g.Entries() {
		fmt.Fprintf(w, "%s\t%s\t%d\t%d\n", e.Path, e.TypeString(), e.Frequency, e.MaxLen)
	}
	w.Flush() //nolint:errcheck
}

func runEncode(files []string) {
	if len(files) == 0 {
		usage()
	}
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "file\tJSON text\tBSON\tOSON\tOSON dict/tree/values")
	for _, f := range files {
		text, err := os.ReadFile(f)
		if err != nil {
			fatal(err)
		}
		dom, err := jsontext.Parse(text)
		if err != nil {
			fatal(fmt.Errorf("%s: %w", f, err))
		}
		compact := jsontext.Serialize(dom)
		bb, err := bson.Encode(dom)
		if err != nil {
			fatal(err)
		}
		ob, err := oson.Encode(dom)
		if err != nil {
			fatal(err)
		}
		od, err := oson.Parse(ob)
		if err != nil {
			fatal(err)
		}
		d, t, v := od.SegmentSizes()
		fmt.Fprintf(w, "%s\t%d\t%d\t%d\t%d/%d/%d\n", f, len(compact), len(bb), len(ob), d, t, v)
	}
	w.Flush() //nolint:errcheck
}
