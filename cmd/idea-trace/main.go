// Command idea-trace stitches per-node causal-tracing journals into
// cluster-wide timelines. It pulls /trace dumps from live admin
// endpoints (or reads dump files collected earlier), estimates clock
// skew between live nodes from matched send/receive span pairs, and
// prints each sampled write's causally ordered tree — inject →
// wal.append → digest/detect hops → apply → resolve.verdict — with its
// derived write-visibility and resolution latency. With -o it also
// writes the merged timeline in the Chrome trace-event format, loadable
// in chrome://tracing or Perfetto.
//
// Usage:
//
//	idea-trace -nodes http://127.0.0.1:9001,http://127.0.0.1:9002,http://127.0.0.1:9003
//	idea-trace -trace 0xdeadbeef -o timeline.json dumps/n1.json dumps/n2.json
//
// A dump file is the JSON a node serves on /trace (curl it during a
// run; the nightly soak workflow collects one per node).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"strconv"
	"strings"
	"time"

	"idea/internal/tracing"
)

func main() {
	nodes := flag.String("nodes", "", "comma-separated admin base URLs to pull /trace dumps from")
	traceID := flag.String("trace", "", "only this trace ID (decimal or 0x-hex)")
	file := flag.String("file", "", "only traces touching this file")
	out := flag.String("o", "", "write merged Chrome trace-event JSON to this path")
	quiet := flag.Bool("q", false, "suppress the per-trace tree view (summary line only)")
	timeout := flag.Duration("timeout", 5*time.Second, "per-node fetch timeout")
	flag.Parse()

	var filterTrace uint64
	if *traceID != "" {
		v, err := strconv.ParseUint(*traceID, 0, 64)
		if err != nil {
			fatalf("-trace %q: %v", *traceID, err)
		}
		filterTrace = v
	}

	var dumps []tracing.Dump
	if *nodes != "" {
		client := &http.Client{Timeout: *timeout}
		for _, base := range strings.Split(*nodes, ",") {
			base = strings.TrimSpace(base)
			if base == "" {
				continue
			}
			d, err := fetch(client, base, *traceID, *file)
			if err != nil {
				fatalf("%s: %v", base, err)
			}
			dumps = append(dumps, d)
		}
	}
	for _, path := range flag.Args() {
		d, err := readDump(path)
		if err != nil {
			fatalf("%s: %v", path, err)
		}
		dumps = append(dumps, d)
	}
	if len(dumps) == 0 {
		fatalf("no inputs: pass -nodes URLs and/or dump files (see -h)")
	}

	timelines := tracing.Merge(dumps)
	// File/trace filters re-applied locally so dump files behave like
	// live endpoints.
	var kept []tracing.Timeline
	for _, tl := range timelines {
		if filterTrace != 0 && tl.Trace != filterTrace {
			continue
		}
		if *file != "" && !touches(tl, *file) {
			continue
		}
		kept = append(kept, tl)
	}

	var dropped uint64
	for _, d := range dumps {
		dropped += d.Dropped
	}
	fmt.Printf("%d node journal(s), %d trace(s)", len(dumps), len(kept))
	if dropped > 0 {
		fmt.Printf(" (%d events overwritten before export — raise tracing.Config.Buffer or lower sampling)", dropped)
	}
	fmt.Println()
	for _, tl := range kept {
		if *quiet {
			fmt.Printf("trace %016x  events=%d  nodes=%v\n", tl.Trace, len(tl.Events), tl.Nodes())
			continue
		}
		fmt.Println(tl.Tree())
	}

	if *out != "" {
		raw, err := tracing.ChromeTrace(kept)
		if err != nil {
			fatalf("chrome export: %v", err)
		}
		if err := os.WriteFile(*out, raw, 0o644); err != nil {
			fatalf("write %s: %v", *out, err)
		}
		fmt.Printf("wrote %s (%d bytes) — open in chrome://tracing or https://ui.perfetto.dev\n", *out, len(raw))
	}
}

func fetch(client *http.Client, base, traceID, file string) (tracing.Dump, error) {
	url := strings.TrimSuffix(base, "/") + "/trace"
	var params []string
	if traceID != "" {
		params = append(params, "trace="+traceID)
	}
	if file != "" {
		params = append(params, "file="+file)
	}
	if len(params) > 0 {
		url += "?" + strings.Join(params, "&")
	}
	resp, err := client.Get(url)
	if err != nil {
		return tracing.Dump{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return tracing.Dump{}, fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	var d tracing.Dump
	if err := json.NewDecoder(resp.Body).Decode(&d); err != nil {
		return tracing.Dump{}, fmt.Errorf("decode %s: %w", url, err)
	}
	return d, nil
}

func readDump(path string) (tracing.Dump, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return tracing.Dump{}, err
	}
	var d tracing.Dump
	if err := json.Unmarshal(raw, &d); err != nil {
		return tracing.Dump{}, fmt.Errorf("not a /trace dump: %w", err)
	}
	return d, nil
}

func touches(tl tracing.Timeline, file string) bool {
	for _, e := range tl.Events {
		if string(e.File) == file {
			return true
		}
	}
	return false
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "idea-trace: "+format+"\n", args...)
	os.Exit(1)
}
