package main

import (
	"fmt"
	"os"
	"runtime"
	"strings"
	"syscall"

	"qisim/internal/buildinfo"
)

// host describes the machine and build a report was measured on.
type host struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	CPUModel   string `json:"cpu_model"`
	// DataDirFS is the filesystem type under the runs' scratch data, which
	// holds the service's journal and checkpoints.
	DataDirFS   string `json:"datadir_fs"`
	VCSRevision string `json:"vcs_revision"`
}

func probeHost() host {
	rev := buildinfo.Resolve().Commit
	if rev == "" {
		rev = "unknown"
	}
	return host{
		NProc:       runtime.NumCPU(),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		GoVersion:   runtime.Version(),
		GOOS:        runtime.GOOS,
		GOARCH:      runtime.GOARCH,
		CPUModel:    cpuModel(),
		DataDirFS:   fsType(buildDir),
		VCSRevision: rev,
	}
}

// sameMachine reports whether two reports were measured on the same kind of
// machine, so their numbers can be compared.
func (h host) sameMachine(o host) bool { return h.identity() == o.identity() }

func (h host) identity() string {
	return fmt.Sprintf("%s %s/%s nproc=%d gomaxprocs=%d", h.CPUModel, h.GOOS, h.GOARCH, h.NProc, h.GOMAXPROCS)
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

// fsMagic names the statfs(2) magic numbers of common filesystems.
var fsMagic = map[int64]string{
	0xEF53:     "ext4",
	0x01021994: "tmpfs",
	0x794C7630: "overlayfs",
	0x58465342: "xfs",
	0x9123683E: "btrfs",
	0x2FC12FC1: "zfs",
	0x6969:     "nfs",
	0x01021997: "9p",
	0x65735546: "fuse",
}

func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	if name, ok := fsMagic[int64(st.Type)]; ok {
		return name
	}
	return fmt.Sprintf("0x%x", st.Type)
}
