package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// dist is a sample of one timing or quantity.
type dist []float64

func (d dist) sorted() dist {
	s := append(dist(nil), d...)
	sort.Float64s(s)
	return s
}

// quantile returns the nearest-rank q-quantile of d, 0 when d is empty.
func (d dist) quantile(q float64) float64 {
	if len(d) == 0 {
		return 0
	}
	s := d.sorted()
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[max(0, min(i, len(s)-1))]
}

func (d dist) mean() float64 {
	if len(d) == 0 {
		return 0
	}
	var sum float64
	for _, x := range d {
		sum += x
	}
	return sum / float64(len(d))
}

// supports reports whether the q-quantile of an n-sample has at least
// ten samples beyond it, the least the benchmark reports a tail on.
func supports(n int, q float64) bool { return float64(n)*(1-q) >= 10 }

func durMs(d time.Duration) float64 { return float64(d) / 1e6 }

// vmHWM reads the process's peak resident set size in MB.
func vmHWM() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			return kb / 1024
		}
	}
	return 0
}

// provenance records where and on what a result was measured.
type provenance struct {
	Gomaxprocs   int     `json:"gomaxprocs"`
	Nproc        int     `json:"nproc"`
	CPU          string  `json:"cpu"`
	GoVersion    string  `json:"go_version"`
	Commit       string  `json:"commit"`
	SourceSHA256 string  `json:"source_sha256"`
	Workload     string  `json:"workload"`
	Seed         uint64  `json:"seed"`
	WindowS      float64 `json:"window_s"`
	Traced       bool    `json:"traced"`
}

func newProvenance(root, workload string, seed uint64, window time.Duration, traced bool) provenance {
	return provenance{
		Gomaxprocs:   runtime.GOMAXPROCS(0),
		Nproc:        runtime.NumCPU(),
		CPU:          cpuModel(),
		GoVersion:    runtime.Version(),
		Commit:       gitCommit(root),
		SourceSHA256: sourceDigest(root),
		Workload:     workload,
		Seed:         seed,
		WindowS:      window.Seconds(),
		Traced:       traced,
	}
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// gitCommit reads HEAD from a .git directory under root without running
// git; a checkout that is not a repository reports "unknown" and is
// identified by its source digest instead.
func gitCommit(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref, ok := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !ok {
		return strings.TrimSpace(string(head))
	}
	if b, err := os.ReadFile(filepath.Join(root, ".git", ref)); err == nil {
		return strings.TrimSpace(string(b))
	}
	return "unknown"
}

// sourceDigest hashes every Go source and module file under root (build
// output excluded), so two results can be matched to the code they ran.
func sourceDigest(root string) string {
	var files []string
	filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && (d.Name() == ".git" || d.Name() == ".bench_build") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			files = append(files, p)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, p := range files {
		rel, _ := filepath.Rel(root, p)
		io.WriteString(h, rel+"\x00")
		if f, err := os.Open(p); err == nil {
			io.Copy(h, f)
			f.Close()
		}
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
