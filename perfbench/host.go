package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"time"
)

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

func kernelRelease() string {
	var u syscall.Utsname
	if err := syscall.Uname(&u); err != nil {
		return "unknown"
	}
	var b strings.Builder
	for _, c := range u.Release {
		if c == 0 {
			break
		}
		b.WriteByte(byte(c))
	}
	return b.String()
}

// fsMagic names the filesystems a benchmark host is likely to put its data
// directory on (statfs f_type values).
var fsMagic = map[int64]string{
	0xef53: "ext4", 0x58465342: "xfs", 0x9123683e: "btrfs", 0x01021994: "tmpfs",
	0x794c7630: "overlay", 0x2fc12fc1: "zfs", 0x6969: "nfs", 0x65735546: "fuse",
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

// fsyncProbe measures the median of 25 small write+fsync pairs in dir, the
// cost a durable SAVE pays at the bottom of the stack.
func fsyncProbe(dir string) float64 {
	f, err := os.Create(filepath.Join(dir, "fsync-probe"))
	if err != nil {
		return 0
	}
	defer os.Remove(f.Name()) //nolint:errcheck // probe file
	defer f.Close()           //nolint:errcheck // probe file
	buf := make([]byte, 64)
	var ds []time.Duration
	for i := 0; i < 25; i++ {
		t0 := time.Now()
		if _, err := f.Write(buf); err != nil {
			return 0
		}
		if err := f.Sync(); err != nil {
			return 0
		}
		ds = append(ds, time.Since(t0))
	}
	return float64(medianDur(ds)) / 1e3
}
