//go:build !amd64

package main

func cpuModel() string { return "unknown" }

func cacheBytes(level uint32) uint64 { return 0 }
