package main

// Reference results: every scalar field of every per-VM sim.Result a
// grid pass yields, stored at full precision so a speed-only change to
// the program can be checked to leave each simulated statistic
// bit-identical. Timeline and Events are trace data, never set in a
// benchmark run, and are not stored.
//
// File format (one file per workload and simulation seed, in
// ref/<workload>-seed<N>.jsonl): a header object naming the fields,
// then one JSON array per result, in grid order:
//
//	{"workload":"reused","seed":1,"fields":["System","Workload",...]}
//	["redis × THP × reused#0","THP","redis",31.52...,...]
//
// Floats are written by encoding/json, whose shortest round-trip form
// parses back to the identical float64.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strconv"

	"repro/internal/sim"
)

// refHeader is the first line of a reference file.
type refHeader struct {
	Workload string   `json:"workload"`
	Seed     int64    `json:"seed"`
	Fields   []string `json:"fields"`
}

// refRow is one stored result: its key and its scalar field values.
type refRow struct {
	key  string
	vals []any // string, uint64 or float64, in scalarFields order
}

// scalarFields lists the indices of sim.Result's scalar fields, the
// ones a reference stores and the checks compare.
var scalarFields = func() []int {
	var idx []int
	t := reflect.TypeOf(sim.Result{})
	for i := 0; i < t.NumField(); i++ {
		switch k := t.Field(i).Type.Kind(); k {
		case reflect.String, reflect.Uint64, reflect.Float64:
			idx = append(idx, i)
		case reflect.Slice: // Timeline, Events: trace data
		default:
			panic(fmt.Sprintf("sim.Result.%s: unhandled kind %s", t.Field(i).Name, k))
		}
	}
	return idx
}()

func fieldNames() []string {
	t := reflect.TypeOf(sim.Result{})
	names := make([]string, len(scalarFields))
	for i, f := range scalarFields {
		names[i] = t.Field(f).Name
	}
	return names
}

// resultKeys names each result of a pass: the simulation seed, the
// cell name and the VM index within the cell.
func resultKeys(g grid) []string {
	var keys []string
	for _, c := range g.cells {
		for v := range c.ec.VMs {
			keys = append(keys, fmt.Sprintf("seed %d: %s#%d", c.ec.Seed, c.name, v))
		}
	}
	return keys
}

// seedGrid is the part of g that belongs to one simulation seed.
func seedGrid(g grid, seed int64) grid {
	sub := grid{name: g.name, seeds: []int64{seed}}
	for _, c := range g.cells {
		if c.ec.Seed == seed {
			sub.cells = append(sub.cells, c)
		}
	}
	return sub
}

func toRow(key string, r sim.Result) refRow {
	v := reflect.ValueOf(r)
	row := refRow{key: key, vals: make([]any, len(scalarFields))}
	for i, f := range scalarFields {
		row.vals[i] = v.Field(f).Interface()
	}
	return row
}

// refPath is the reference file for one workload and simulation seed.
func refPath(dir, workload string, seed int64) string {
	return filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", workload, seed))
}

// writeReferences stores one pass's results as the reference, one
// file per simulation seed.
func writeReferences(dir string, g grid, rs []sim.Result) error {
	for _, seed := range g.seeds {
		sub := seedGrid(g, seed)
		n := sub.results()
		if err := writeReference(refPath(dir, g.name, seed), sub, seed, rs[:n]); err != nil {
			return err
		}
		rs = rs[n:]
	}
	return nil
}

func writeReference(path string, g grid, seed int64, rs []sim.Result) error {
	var b bytes.Buffer
	hdr, err := json.Marshal(refHeader{Workload: g.name, Seed: seed, Fields: fieldNames()})
	if err != nil {
		return err
	}
	b.Write(hdr)
	b.WriteByte('\n')
	for i, key := range resultKeys(g) {
		row := toRow(key, rs[i])
		line, err := json.Marshal(append([]any{row.key}, row.vals...))
		if err != nil {
			return fmt.Errorf("encode %s: %w", key, err)
		}
		b.Write(line)
		b.WriteByte('\n')
	}
	return os.WriteFile(path, b.Bytes(), 0o644)
}

// readReferences loads the reference rows of every seed of g, in
// pass order.
func readReferences(dir string, g grid) ([]refRow, error) {
	var rows []refRow
	for _, seed := range g.seeds {
		r, err := readReference(refPath(dir, g.name, seed), seedGrid(g, seed), seed)
		if err != nil {
			return nil, err
		}
		rows = append(rows, r...)
	}
	return rows, nil
}

// readReference loads a reference file and checks it describes g.
func readReference(path string, g grid, seed int64) ([]refRow, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	sc := bufio.NewScanner(bytes.NewReader(data))
	sc.Buffer(make([]byte, 0, 1<<16), 1<<20)
	if !sc.Scan() {
		return nil, fmt.Errorf("%s: empty", path)
	}
	var hdr refHeader
	if err := json.Unmarshal(sc.Bytes(), &hdr); err != nil {
		return nil, fmt.Errorf("%s: header: %w", path, err)
	}
	want := fieldNames()
	if hdr.Workload != g.name || hdr.Seed != seed || !reflect.DeepEqual(hdr.Fields, want) {
		return nil, fmt.Errorf("%s: header %+v does not match workload %s seed %d fields %v",
			path, hdr, g.name, seed, want)
	}
	kinds := make([]reflect.Kind, len(scalarFields))
	t := reflect.TypeOf(sim.Result{})
	for i, f := range scalarFields {
		kinds[i] = t.Field(f).Type.Kind()
	}
	var rows []refRow
	for sc.Scan() {
		var raw []json.RawMessage
		if err := json.Unmarshal(sc.Bytes(), &raw); err != nil {
			return nil, fmt.Errorf("%s: row %d: %w", path, len(rows)+1, err)
		}
		if len(raw) != len(kinds)+1 {
			return nil, fmt.Errorf("%s: row %d has %d values, want %d", path, len(rows)+1, len(raw), len(kinds)+1)
		}
		row := refRow{vals: make([]any, len(kinds))}
		if err := json.Unmarshal(raw[0], &row.key); err != nil {
			return nil, fmt.Errorf("%s: row %d key: %w", path, len(rows)+1, err)
		}
		for i, k := range kinds {
			v, err := parseValue(k, raw[i+1])
			if err != nil {
				return nil, fmt.Errorf("%s: %s field %s: %w", path, row.key, want[i], err)
			}
			row.vals[i] = v
		}
		rows = append(rows, row)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	keys := resultKeys(g)
	if len(rows) != len(keys) {
		return nil, fmt.Errorf("%s: %d rows, grid yields %d results", path, len(rows), len(keys))
	}
	for i, k := range keys {
		if rows[i].key != k {
			return nil, fmt.Errorf("%s: row %d is %q, grid expects %q", path, i+1, rows[i].key, k)
		}
	}
	return rows, nil
}

func parseValue(k reflect.Kind, raw json.RawMessage) (any, error) {
	switch k {
	case reflect.String:
		var s string
		err := json.Unmarshal(raw, &s)
		return s, err
	case reflect.Uint64:
		return strconv.ParseUint(string(raw), 10, 64)
	default:
		return strconv.ParseFloat(string(raw), 64)
	}
}

// diffRow reports the first field where got differs from want, or ""
// when every scalar field is identical (floats compared bit for bit).
func diffRow(want, got refRow) string {
	names := fieldNames()
	for i := range want.vals {
		w, g := want.vals[i], got.vals[i]
		same := w == g
		if wf, ok := w.(float64); ok {
			same = math.Float64bits(wf) == math.Float64bits(g.(float64))
		}
		if !same {
			return fmt.Sprintf("%s: %s = %v, want %v", want.key, names[i], g, w)
		}
	}
	return ""
}

// checkResults compares one pass's results with the reference rows,
// returning the number of cells with at least one differing result
// and a description of the first difference.
func checkResults(g grid, ref []refRow, rs []sim.Result) (badCells int, first string) {
	keys := resultKeys(g)
	i := 0
	for _, c := range g.cells {
		bad := false
		for range c.ec.VMs {
			if d := diffRow(ref[i], toRow(keys[i], rs[i])); d != "" {
				bad = true
				if first == "" {
					first = d
				}
			}
			i++
		}
		if bad {
			badCells++
		}
	}
	return badCells, first
}
