package main

import (
	"encoding/binary"
	"strings"
)

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

// cpuModel returns the processor brand string (CPUID leaves
// 0x80000002-4) without reading any file.
func cpuModel() string {
	if max, _, _, _ := cpuid(0x80000000, 0); max < 0x80000004 {
		return "unknown"
	}
	var b []byte
	for leaf := uint32(0x80000002); leaf <= 0x80000004; leaf++ {
		a, bx, c, d := cpuid(leaf, 0)
		for _, r := range []uint32{a, bx, c, d} {
			b = binary.LittleEndian.AppendUint32(b, r)
		}
	}
	return strings.TrimSpace(strings.TrimRight(string(b), "\x00"))
}

// cacheBytes returns the size of the level-n data or unified cache as
// the processor reports it (CPUID leaf 4), or 0 if it reports none.
func cacheBytes(level uint32) uint64 {
	if max, _, _, _ := cpuid(0, 0); max < 4 {
		return 0
	}
	for sub := uint32(0); sub < 16; sub++ {
		a, b, c, _ := cpuid(4, sub)
		typ := a & 0x1f
		if typ == 0 {
			break
		}
		if (a>>5)&7 != level || typ == 2 { // 2: instruction cache
			continue
		}
		ways := uint64(b>>22) + 1
		parts := uint64((b>>12)&0x3ff) + 1
		line := uint64(b&0xfff) + 1
		sets := uint64(c) + 1
		return ways * parts * line * sets
	}
	return 0
}
