package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"syscall"
	"time"
)

// hostInfo is reported with every run and never used to drop one.
type hostInfo struct {
	goVersion  string
	nproc      int
	fsType     string
	fsyncUsP50 float64
}

// probeHost measures raw append+fsync latency on dir's filesystem (the
// data directories live there) and names the filesystem.
func probeHost(dir string) (hostInfo, error) {
	h := hostInfo{goVersion: runtime.Version(), nproc: runtime.NumCPU(), fsType: fsType(dir)}
	path := filepath.Join(dir, "fsync-probe")
	f, err := os.Create(path)
	if err != nil {
		return h, err
	}
	defer os.Remove(path)
	defer f.Close()
	rec := make([]byte, 128) // about one WAL record
	lat := make([]float64, 0, 200)
	for i := 0; i < cap(lat); i++ {
		t := time.Now()
		if _, err := f.Write(rec); err != nil {
			return h, err
		}
		if err := f.Sync(); err != nil {
			return h, err
		}
		lat = append(lat, float64(time.Since(t))/1e3)
	}
	h.fsyncUsP50 = quantile(lat, 0.5)
	return h, nil
}

func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint64(st.Type) {
	case 0xEF53:
		return "ext4"
	case 0x01021994:
		return "tmpfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	case 0x794c7630:
		return "overlayfs"
	}
	return fmt.Sprintf("0x%x", uint64(st.Type))
}
