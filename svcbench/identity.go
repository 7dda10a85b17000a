package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
)

// identity pins what a result was measured on.
type identity struct {
	// GitSHA and Dirty come from the Go build's VCS stamp; they are
	// "none"/false when the tree was built outside a git checkout.
	GitSHA string `json:"git_sha"`
	Dirty  bool   `json:"dirty"`
	// TreeHash is a SHA-256 over every Go source and module file of the
	// measured tree, so two results with equal TreeHash measured the same
	// code whether or not git was there (it also covers uncommitted diffs).
	TreeHash   string `json:"tree_hash"`
	CPUModel   string `json:"cpu_model"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Seed       uint64 `json:"seed"`
}

func runIdentity(root string, seed uint64) identity {
	id := identity{
		GitSHA:     "none",
		CPUModel:   cpuModel(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Seed:       seed,
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				id.GitSHA = s.Value
			case "vcs.modified":
				id.Dirty = s.Value == "true"
			}
		}
	}
	h, err := treeHash(root)
	if err != nil {
		h = "error: " + err.Error()
	}
	id.TreeHash = h
	return id
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// treeHash hashes the path and content of every .go, go.mod and go.sum
// file under root, skipping build output and VCS metadata.
func treeHash(root string) (string, error) {
	var files []string
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if n := d.Name(); p != root && (strings.HasPrefix(n, ".") || n == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if n := d.Name(); strings.HasSuffix(n, ".go") || n == "go.mod" || n == "go.sum" {
			files = append(files, p)
		}
		return nil
	})
	if err != nil {
		return "", err
	}
	sort.Strings(files)
	sum := sha256.New()
	for _, p := range files {
		b, err := os.ReadFile(p)
		if err != nil {
			return "", err
		}
		rel, _ := filepath.Rel(root, p)
		fmt.Fprintf(sum, "%s\x00%d\x00", filepath.ToSlash(rel), len(b))
		sum.Write(b)
	}
	return hex.EncodeToString(sum.Sum(nil)), nil
}

// countFile holds the program-reported counts of one workload and seed,
// so a later run of the same seed on the same tree can check they repeat.
type countFile struct {
	TreeHash string             `json:"tree_hash"`
	Counts   map[string][]int64 `json:"counts"`
}

// compareCounts merges counts into the file at path and returns the keys
// whose values differ from an earlier run of the same tree.
func compareCounts(path, tree string, counts map[string][]int64) ([]string, error) {
	var old countFile
	if b, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(b, &old); err != nil {
			return nil, fmt.Errorf("reading %s: %w", path, err)
		}
	}
	if old.TreeHash != tree || old.Counts == nil {
		old = countFile{TreeHash: tree, Counts: map[string][]int64{}}
	}
	var diff []string
	for k, v := range counts {
		if prev, ok := old.Counts[k]; ok && !equalInts(prev, v) {
			diff = append(diff, fmt.Sprintf("%s: %v, earlier run %v", k, v, prev))
			continue
		}
		old.Counts[k] = v
	}
	sort.Strings(diff)
	b, err := json.MarshalIndent(old, "", " ")
	if err != nil {
		return diff, err
	}
	return diff, os.WriteFile(path, b, 0o644)
}

func equalInts(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
