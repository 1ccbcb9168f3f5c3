package netfault

import (
	"encoding/binary"
	"testing"
)

// TestFrameCursorChunkingInvariant: the trigger point lands on the
// same stream byte whether the stream arrives whole, a byte at a time,
// or in uneven chunks.
func TestFrameCursorChunkingInvariant(t *testing.T) {
	var stream []byte
	for _, n := range []int{60, 3, 120} {
		stream = binary.BigEndian.AppendUint32(stream, uint32(n))
		stream = append(stream, make([]byte, n)...)
	}
	// Frame starts: 0, 64, 71; frame 1 is 7 bytes long.
	cases := []struct {
		frame  int
		offset int64
		want   int
	}{
		{0, 0, 0},
		{0, 5, 5},
		{1, 0, 64},   // right after frame 0 completes
		{1, 2, 66},   // inside frame 1's prefix
		{1, 100, 70}, // clamped to frame 1's last byte
		{2, 50, 71 + 50},
		{3, 0, len(stream)},
	}
	for _, tc := range cases {
		for _, step := range []int{len(stream), 1, 7, 33} {
			var c frameCursor
			got := -1
			for off := 0; off < len(stream); off += step {
				end := min(off+step, len(stream))
				if keep, hit := c.advance(stream[off:end], tc.frame, tc.offset); hit {
					got = off + keep
					break
				}
			}
			if got != tc.want {
				t.Errorf("frame %d offset %d, chunks of %d: fired at byte %d, want %d", tc.frame, tc.offset, step, got, tc.want)
			}
		}
	}
}
