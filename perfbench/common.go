package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"

	"positres/internal/core"
	"positres/internal/numfmt"
	"positres/internal/sdrbench"
	"positres/internal/spec"
)

// The paper matrix: one field per SDRBench dataset × posit32 and
// binary32, in runner.SpecsOf order (field-major).
var (
	matrixFields  = []string{"CESM/CLOUD", "EXAFEL/smd-cxif5315-r129-dark", "HACC/vx", "Hurricane/Vf30", "Nyx/temperature"}
	matrixFormats = []string{"posit32", "ieee32"}
)

// pair is one (field, format) campaign of the matrix.
type pair struct {
	field sdrbench.Field
	codec numfmt.Codec
}

func (p pair) key() string { return p.field.Key() }

// matrixPairs resolves the matrix against the registries.
func matrixPairs() ([]pair, error) {
	var out []pair
	for _, key := range matrixFields {
		f, err := sdrbench.Lookup(key)
		if err != nil {
			return nil, err
		}
		for _, name := range matrixFormats {
			c, err := numfmt.Lookup(name)
			if err != nil {
				return nil, err
			}
			out = append(out, pair{field: f, codec: c})
		}
	}
	return out, nil
}

// matrixSpec is the campaign spec of one op; every knob not named here
// keeps the service default (bits_per_shard 8 among them).
func matrixSpec(o options, seed uint64) spec.CampaignSpec {
	return spec.CampaignSpec{
		Fields:       append([]string(nil), matrixFields...),
		Formats:      append([]string(nil), matrixFormats...),
		N:            o.n,
		TrialsPerBit: o.trialsPerBit,
		Seed:         seed,
	}
}

// trialsPerOp is the trial count of one matrix op.
func trialsPerOp(pairs []pair, trialsPerBit int) int {
	total := 0
	for _, p := range pairs {
		total += p.codec.Width() * trialsPerBit
	}
	return total
}

// seeds derives the campaign seeds of a run from its run seed
// (splitmix64), so the program sees only seeds generated from it.
type seeds struct{ state uint64 }

func (s *seeds) next() uint64 {
	s.state += 0x9e3779b97f4a7c15
	z := s.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	if z == 0 { // a zero spec seed means "default"; keep seeds explicit
		z = 1
	}
	return z
}

// referenceDigest is the output contract of one (field, format)
// campaign: the SHA-256 of core.WriteTrialsCSV(core.RunRange(...))
// over the full bit range, the bytes a served or written CSV must
// reproduce exactly.
func referenceDigest(ctx context.Context, cfg core.Config, p pair, data []float64) ([32]byte, error) {
	trials, err := core.RunRange(ctx, cfg, p.codec, p.key(), data, 0, p.codec.Width())
	if err != nil {
		return [32]byte{}, err
	}
	var buf bytes.Buffer
	if err := core.WriteTrialsCSV(&buf, trials); err != nil {
		return [32]byte{}, err
	}
	return sha256.Sum256(buf.Bytes()), nil
}

// cpuTime is the process's user and system CPU time (getrusage).
func cpuTime() (user, sys time.Duration) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, 0
	}
	return time.Duration(ru.Utime.Nano()), time.Duration(ru.Stime.Nano())
}

func cpuTotal() time.Duration {
	u, s := cpuTime()
	return u + s
}

// peakRSSMiB is the process's peak resident set size (getrusage
// ru_maxrss, KiB on Linux).
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// quantile is the Harrell–Davis estimate of the q-quantile of xs: an
// average of all order statistics weighted by a Beta(q(n+1),
// (1−q)(n+1)) distribution. It varies far less from run to run than a
// single order statistic, most where the samples cluster in groups —
// ten (field, format) pairs whose CSVs differ in size, for one. xs is
// not modified.
func quantile(xs []float64, q float64) float64 {
	n := len(xs)
	if n == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n == 1 {
		return s[0]
	}
	a, b := q*float64(n+1), (1-q)*float64(n+1)
	est, prev := 0.0, 0.0
	for i := 1; i <= n; i++ {
		cur := betaInc(a, b, float64(i)/float64(n))
		est += (cur - prev) * s[i-1]
		prev = cur
	}
	return est
}

// betaInc is the regularized incomplete beta function I_x(a, b).
func betaInc(a, b, x float64) float64 {
	switch {
	case x <= 0:
		return 0
	case x >= 1:
		return 1
	}
	la, _ := math.Lgamma(a)
	lb, _ := math.Lgamma(b)
	lab, _ := math.Lgamma(a + b)
	front := math.Exp(lab - la - lb + a*math.Log(x) + b*math.Log1p(-x))
	if x < (a+1)/(a+b+2) {
		return front * betaCF(a, b, x) / a
	}
	return 1 - front*betaCF(b, a, 1-x)/b
}

// betaCF evaluates the incomplete beta function's continued fraction
// by the modified Lentz method.
func betaCF(a, b, x float64) float64 {
	const eps, tiny = 1e-15, 1e-300
	clamp := func(v float64) float64 {
		if math.Abs(v) < tiny {
			return tiny
		}
		return v
	}
	c, d := 1.0, 1/clamp(1-(a+b)*x/(a+1))
	h := d
	for m := 1.0; m <= 10000; m++ {
		even := m * (b - m) * x / ((a + 2*m - 1) * (a + 2*m))
		d = 1 / clamp(1+even*d)
		c = clamp(1 + even/c)
		h *= d * c
		odd := -(a + m) * (a + b + m) * x / ((a + 2*m) * (a + 2*m + 1))
		d = 1 / clamp(1+odd*d)
		c = clamp(1 + odd/c)
		del := d * c
		h *= del
		if math.Abs(del-1) < eps {
			break
		}
	}
	return h
}

func seconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

func sum(ds []time.Duration) time.Duration {
	var t time.Duration
	for _, d := range ds {
		t += d
	}
	return t
}

// provenance records what a timing depends on: timings compare only
// on the same machine, and journal fsync cost depends on the data
// directory's filesystem.
type provenance struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	GitSHA     string `json:"git_sha"`
	DataDirFS  string `json:"data_dir_fs"`
	Workload   string `json:"workload"`
	Seed       uint64 `json:"seed"`
	Trace      bool   `json:"trace"`
	N          int    `json:"n"`
	TrialsPer  int    `json:"trials_per_bit"`
	OpTrials   int    `json:"trials_per_op"`
}

func newProvenance(o options, dataDir string, opTrials int) provenance {
	return provenance{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		GitSHA:     gitSHA(o.repoDir),
		DataDirFS:  filesystem(dataDir),
		Workload:   o.workload,
		Seed:       o.seed,
		Trace:      o.trace,
		N:          o.n,
		TrialsPer:  o.trialsPerBit,
		OpTrials:   opTrials,
	}
}

// gitSHA reads HEAD from the repository's .git directory without
// running git; "unknown" outside a git checkout.
func gitSHA(repo string) string {
	head, err := os.ReadFile(filepath.Join(repo, ".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref, ok := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !ok {
		return strings.TrimSpace(string(head))
	}
	if sha, err := os.ReadFile(filepath.Join(repo, ".git", ref)); err == nil {
		return strings.TrimSpace(string(sha))
	}
	packed, err := os.ReadFile(filepath.Join(repo, ".git", "packed-refs"))
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(packed), "\n") {
		if sha, name, ok := strings.Cut(line, " "); ok && name == ref {
			return sha
		}
	}
	return "unknown"
}

// filesystem names the filesystem holding dir from its statfs magic.
func filesystem(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	names := map[int64]string{
		0xef53:     "ext4",
		0x01021994: "tmpfs",
		0x794c7630: "overlayfs",
		0x58465342: "xfs",
		0x9123683e: "btrfs",
		0x6969:     "nfs",
		0x01021997: "9p",
		0x65735546: "fuse",
		0x2fc12fc1: "zfs",
	}
	if name, ok := names[int64(st.Type)]; ok {
		return name
	}
	return fmt.Sprintf("0x%x", st.Type)
}

// dirBytes sums the sizes of the regular files under dir whose names
// end in suffix, and counts them.
func dirBytes(dir, suffix string) (total int64, files int) {
	_ = filepath.Walk(dir, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return nil // a vanished file is simply not counted
		}
		if info.Mode().IsRegular() && strings.HasSuffix(path, suffix) {
			total += info.Size()
			files++
		}
		return nil
	})
	return total, files
}
