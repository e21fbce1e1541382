package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
)

// stamp describes the run: machine, parallelism, toolchain, code and
// inputs.
func stamp(cfg config) string {
	return fmt.Sprintf("# perfbench workload=%s seed=%d seconds=%g trace=%t nproc=%d gomaxprocs_generator=%d gomaxprocs_server=%d go=%s commit=%s source_sha256=%s",
		cfg.workload, cfg.seed, cfg.seconds, cfg.trace, runtime.NumCPU(), runtime.GOMAXPROCS(0), serverProcs(),
		runtime.Version(), commit(), sourceDigest("."))
}

// serverProcs is the GOMAXPROCS the optik-server child runs with: the
// environment's GOMAXPROCS if set, else every CPU.
func serverProcs() int {
	if v, err := strconv.Atoi(os.Getenv("GOMAXPROCS")); err == nil && v > 0 {
		return v
	}
	return runtime.NumCPU()
}

// commit is the git commit checked out in the working directory, or
// "none" when the directory is not the top of a git checkout (the source
// digest identifies the code then).
func commit() string {
	out, err := exec.Command("git", "rev-parse", "--show-toplevel", "HEAD").Output()
	wd, werr := os.Getwd()
	f := strings.Fields(string(out))
	if err != nil || werr != nil || len(f) != 2 || filepath.Clean(f[0]) != filepath.Clean(wd) {
		return "none"
	}
	return f[1]
}

// sourceDigest hashes every Go source and module file under root, in
// path order, skipping hidden directories (build output included).
func sourceDigest(root string) string {
	h := sha256.New()
	filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && d.Name() != "go.mod" && d.Name() != "go.sum" {
			return nil
		}
		f, err := os.Open(path)
		if err != nil {
			return nil
		}
		defer f.Close()
		fmt.Fprintf(h, "%s\x00", path)
		io.Copy(h, f)
		return nil
	})
	return hex.EncodeToString(h.Sum(nil))[:16]
}
