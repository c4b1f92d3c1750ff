package main

import (
	"crypto/sha256"
	"encoding/hex"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
)

// stamp records the host and the run's parameters with every result, so
// two sets of runs can be checked as same-host and same-settings before
// they are compared.
type stamp struct {
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	Seconds    int    `json:"seconds"`
	Traced     bool   `json:"traced"`
	Reps       int    `json:"reps"`        // untraced repetitions
	TracedReps int    `json:"traced_reps"` // traced repetitions

	Host       string `json:"host"`
	OS         string `json:"os"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	// Commit is the VCS revision the binary was built from, when the
	// source tree is a checkout; SourceDigest hashes the simulator's Go
	// sources, go.mod files and golden files, so it identifies the code
	// either way.
	Commit       string `json:"commit"`
	SourceDigest string `json:"source_digest"`

	Scale        float64 `json:"scale"`
	RunnerJobs   int     `json:"runner_jobs"`
	CrashFiles   int     `json:"crash_files"`
	CrashBudget  int     `json:"crash_budget"`
	CrashWorkers int     `json:"crash_workers"`
}

func newStamp(name string, seed int64, seconds int, traced bool, root string) (*stamp, error) {
	host, _ := os.Hostname() // an unnamed host is still stamped with the rest
	digest, err := sourceDigest(root)
	if err != nil {
		return nil, err
	}
	st := &stamp{
		Workload: name, Seed: seed, Seconds: seconds, Traced: traced,
		Host: host, OS: runtime.GOOS + "/" + runtime.GOARCH,
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Commit: "unknown", SourceDigest: digest,
		Scale: benchScale, RunnerJobs: 1,
		CrashFiles: crashFiles, CrashBudget: crashBudget, CrashWorkers: crashWorkers,
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				st.Commit = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					st.Commit += "+modified"
				}
			}
		}
	}
	return st, nil
}

// sourceDigest hashes, in path order, every Go source, go.mod and
// testdata file under root, skipping dot directories.
func sourceDigest(root string) (string, error) {
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
		if !d.Type().IsRegular() {
			return nil
		}
		if !strings.HasSuffix(path, ".go") && d.Name() != "go.mod" &&
			!strings.Contains(filepath.ToSlash(path), "/testdata/") {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		h.Write([]byte(filepath.ToSlash(rel)))
		h.Write([]byte{0})
		h.Write(b)
		return nil
	})
	if err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil))[:16], nil
}
