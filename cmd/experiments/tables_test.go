//go:build !race && amd64

package main

import (
	"bytes"
	"os"
	"regexp"
	"strings"
	"testing"
)

// tableBlock is one regenerated table of EXPERIMENTS.md: the command line
// in its opening marker, then that command's stdout, then the end marker.
var tableBlock = regexp.MustCompile(`(?s)<!-- go run \./cmd/experiments ([^\n]*?) -->\n(.*?)<!-- end -->`)

// TestExperimentsTablesCurrent runs the command of every bench-scale block
// of EXPERIMENTS.md in-process and compares its output with the block byte
// for byte, so a stale or hand-edited number fails. Full-scale blocks are
// refreshed by running their command; TestDocsNameLiveSymbols checks that
// it still parses. The values were recorded on amd64 and are not checked
// under the race detector, like the golden snapshots.
func TestExperimentsTablesCurrent(t *testing.T) {
	doc, err := os.ReadFile("../../EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	blocks := tableBlock.FindAllStringSubmatch(string(doc), -1)
	if opened := strings.Count(string(doc), "<!-- go run ./cmd/experiments "); opened != len(blocks) {
		t.Fatalf("EXPERIMENTS.md: %d table markers, %d of them closed by <!-- end -->", opened, len(blocks))
	}
	ran := 0
	for _, b := range blocks {
		if strings.Contains(b[1], "-scale full") {
			continue
		}
		ran++
		t.Run(b[1], func(t *testing.T) {
			var out bytes.Buffer
			if err := run(strings.Fields(b[1]), &out); err != nil {
				t.Fatal(err)
			}
			if got := out.String(); got != b[2] {
				gotLines, wantLines := strings.Split(got, "\n"), strings.Split(b[2], "\n")
				for i := range min(len(gotLines), len(wantLines)) {
					if gotLines[i] != wantLines[i] {
						t.Fatalf("block line %d:\n got %q\nwant %q\n(regenerate with go run ./cmd/experiments %s)", i+1, gotLines[i], wantLines[i], b[1])
					}
				}
				t.Fatalf("output has %d lines, the block %d (regenerate with go run ./cmd/experiments %s)", len(gotLines), len(wantLines), b[1])
			}
		})
	}
	if ran == 0 {
		t.Fatal("EXPERIMENTS.md: found no bench-scale table block")
	}
}
