// Command benchjson converts `go test -bench` text output on stdin
// into a JSON array on stdout, one object per benchmark line with its
// iteration count and every reported metric keyed by unit. CI uses it
// to emit BENCH_GOTEST.json, the performance-trajectory artifact of
// its short benchmark pass:
//
//	go test -bench . -benchtime 1x | go run ./cmd/benchjson > BENCH_GOTEST.json
package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"strconv"
	"strings"
)

// result is one parsed benchmark line.
type result struct {
	Name    string             `json:"name"`
	N       int64              `json:"n"`
	Metrics map[string]float64 `json:"metrics"`
}

func main() {
	results := []result{}
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		fields := strings.Fields(line)
		// Name, N, then value/unit pairs (ns/op, MB/s, custom metrics).
		if len(fields) < 4 || len(fields)%2 != 0 {
			continue
		}
		n, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			continue
		}
		r := result{Name: fields[0], N: n, Metrics: map[string]float64{}}
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				continue
			}
			r.Metrics[fields[i+1]] = v
		}
		results = append(results, r)
	}
	if err := sc.Err(); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(results); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}
