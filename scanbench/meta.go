package main

import (
	"crypto/sha256"
	"encoding/hex"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
)

// meta identifies a run: what code, on what host, with which inputs.
type meta struct {
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	Trace      int    `json:"trace"`
	GitSHA     string `json:"git_sha"`   // "none" outside a git checkout
	GitDirty   string `json:"git_dirty"` // "true", "false" or "unknown"
	SourceSHA  string `json:"source_sha256"`
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"nproc"`
	CPU        string `json:"cpu_model"`
	L2Bytes    uint64 `json:"l2_bytes"`
	L3Bytes    uint64 `json:"l3_bytes"`
}

// hostMeta is read from the checkout the benchmark runs in (its working
// directory) and from the processor, never from files outside it.
func hostMeta(workload string, seed int64, trace int) meta {
	m := meta{
		Workload: workload, Seed: seed, Trace: trace,
		GitSHA: "none", GitDirty: "unknown",
		SourceSHA:  sourceDigest("."),
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		CPU:        cpuModel(),
		L2Bytes:    cacheBytes(2),
		L3Bytes:    cacheBytes(3),
	}
	if st, err := os.Stat(".git"); err == nil && st.IsDir() {
		if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
			m.GitSHA = strings.TrimSpace(string(out))
		}
		if out, err := exec.Command("git", "status", "--porcelain", "--untracked-files=no").Output(); err == nil {
			m.GitDirty = "false"
			if len(strings.TrimSpace(string(out))) > 0 {
				m.GitDirty = "true"
			}
		}
	}
	return m
}

// sourceDigest hashes every Go source and module file under root, in
// path order, skipping dot-directories (build output included): it
// names the code a run measured even where there is no git metadata.
func sourceDigest(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && !strings.HasSuffix(path, ".s") && d.Name() != "go.mod" {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		h.Write([]byte(path))
		h.Write(b)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))
}
