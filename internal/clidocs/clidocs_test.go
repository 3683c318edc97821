// Package clidocs gates the documented command lines. Every
// `go run ./cmd/<tool> ...` invocation in the repo's markdown is
// extracted and its flags and subcommands are checked against the
// tool's actual usage output, so a renamed flag or removed subcommand
// fails the build instead of silently rotting the docs. Any other
// mention of a cmd/<tool> or examples/<name> must name a directory that
// exists.
package clidocs

import (
	"context"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"
)

// docSources are the markdown files whose command lines are under
// contract. docs/*.md is globbed so new documents join automatically.
var docSources = []string{"README.md", "EXPERIMENTS.md", "DESIGN.md"}

var (
	cmdLine     = regexp.MustCompile("go run \\./cmd/([a-z]+)([^`\\n]*)")
	toolMention = regexp.MustCompile(`\b(cmd|examples)/([a-z]+)`)
)

// stopTokens end argument scanning: everything after shell syntax
// (redirection, background, comments) is not part of the tool's argv.
func stopToken(tok string) bool {
	switch tok {
	case "#", "|", "&", "&&":
		return true
	}
	return strings.HasPrefix(tok, ">") || strings.HasPrefix(tok, "2>")
}

type invocation struct {
	where   string // file:line
	tool    string
	subcmds []string // leading bare words: "scenario", "run", "summarize", ...
	flags   []string // flag names with dashes stripped: "exp", "verdict-dir", ...
}

// parseInvocation splits the text after "go run ./cmd/<tool>" into
// leading subcommand words and flag names. Value arguments (file
// names, experiment ids, placeholders like <id>) are skipped: flag
// arity is not knowable from usage text, and file arguments carry no
// contract.
func parseInvocation(where, tool, rest string) invocation {
	inv := invocation{where: where, tool: tool}
	leading := true
	for _, tok := range strings.Fields(rest) {
		if stopToken(tok) {
			break
		}
		if strings.HasPrefix(tok, "-") {
			leading = false
			name := strings.TrimLeft(tok, "-")
			name, _, _ = strings.Cut(name, "=")
			if name != "" {
				inv.flags = append(inv.flags, name)
			}
			continue
		}
		if leading && !strings.ContainsAny(tok, "./<") {
			inv.subcmds = append(inv.subcmds, tok)
			continue
		}
		leading = false
	}
	return inv
}

// docLines calls fn with every line of the doc sources and its
// file:line position.
func docLines(t *testing.T, root string, fn func(where, line string)) {
	t.Helper()
	files := append([]string(nil), docSources...)
	globbed, err := filepath.Glob(filepath.Join(root, "docs", "*.md"))
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range globbed {
		rel, _ := filepath.Rel(root, g)
		files = append(files, rel)
	}
	for _, rel := range files {
		data, err := os.ReadFile(filepath.Join(root, rel))
		if err != nil {
			t.Errorf("%s: %v", rel, err)
			continue
		}
		for i, line := range strings.Split(string(data), "\n") {
			fn(rel+":"+itoa(i+1), line)
		}
	}
}

func collectInvocations(t *testing.T, root string) []invocation {
	t.Helper()
	var invs []invocation
	docLines(t, root, func(where, line string) {
		for _, m := range cmdLine.FindAllStringSubmatch(line, -1) {
			invs = append(invs, parseInvocation(where, m[1], m[2]))
		}
	})
	return invs
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b [8]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b[i:])
}

// usageHarvester builds each referenced tool once and collects usage
// text: `tool -h` plus, when a subcommand is documented,
// `tool <subcmd>` with no further arguments — every subcommand CLI in
// this repo fails fast to usage when given nothing to work on.
type usageHarvester struct {
	root   string
	binDir string
	bins   map[string]string // tool -> built binary (or "" on failure)
	usage  map[string]string // tool or tool+" "+subcmd -> output
}

func (h *usageHarvester) run(t *testing.T, args ...string) string {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	cmd := exec.CommandContext(ctx, args[0], args[1:]...)
	cmd.Dir = h.root
	out, _ := cmd.CombinedOutput() // usage exits non-zero by design
	return string(out)
}

func (h *usageHarvester) bin(t *testing.T, tool string) string {
	t.Helper()
	if b, ok := h.bins[tool]; ok {
		return b
	}
	if _, err := os.Stat(filepath.Join(h.root, "cmd", tool)); err != nil {
		t.Errorf("documented tool cmd/%s does not exist: %v", tool, err)
		h.bins[tool] = ""
		return ""
	}
	bin := filepath.Join(h.binDir, tool)
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	cmd := exec.CommandContext(ctx, "go", "build", "-o", bin, "./cmd/"+tool)
	cmd.Dir = h.root
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Errorf("building cmd/%s: %v\n%s", tool, err, out)
		bin = ""
	}
	h.bins[tool] = bin
	return bin
}

func (h *usageHarvester) corpus(t *testing.T, tool string, subcmds []string) string {
	t.Helper()
	bin := h.bin(t, tool)
	if bin == "" {
		return ""
	}
	text, ok := h.usage[tool]
	if !ok {
		text = h.run(t, bin, "-h")
		h.usage[tool] = text
	}
	if len(subcmds) > 0 {
		key := tool + " " + subcmds[0]
		sub, ok := h.usage[key]
		if !ok {
			sub = h.run(t, bin, subcmds[0])
			h.usage[key] = sub
		}
		text += "\n" + sub
	}
	return text
}

// TestMentionedToolsExist fails when the docs name a cmd/<tool> or an
// examples/<name>, in a command line or in prose, that is not in the
// tree.
func TestMentionedToolsExist(t *testing.T) {
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	mentions := 0
	docLines(t, root, func(where, line string) {
		for _, m := range toolMention.FindAllStringSubmatch(line, -1) {
			mentions++
			if _, err := os.Stat(filepath.Join(root, m[1], m[2])); err != nil {
				t.Errorf("%s: names %s/%s, which does not exist", where, m[1], m[2])
			}
		}
	})
	if mentions < 10 {
		t.Fatalf("found only %d cmd/<tool> and examples/<name> mentions; the extractor regressed", mentions)
	}
}

// TestDocumentedCommandsParse fails when a command line documented in
// the markdown names a flag or subcommand the tool no longer defines.
// It is deliberately one-sided: docs may show a subset of the flags,
// but never a stale one.
func TestDocumentedCommandsParse(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the CLI tools")
	}
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	invs := collectInvocations(t, root)
	if len(invs) < 10 {
		t.Fatalf("found only %d documented command lines; the extractor regressed", len(invs))
	}
	h := &usageHarvester{
		root:   root,
		binDir: t.TempDir(),
		bins:   map[string]string{},
		usage:  map[string]string{},
	}
	for _, inv := range invs {
		corpus := h.corpus(t, inv.tool, inv.subcmds)
		if corpus == "" {
			continue // build failure already reported
		}
		for _, sub := range inv.subcmds {
			if !regexp.MustCompile(`\b` + regexp.QuoteMeta(sub) + `\b`).MatchString(corpus) {
				t.Errorf("%s: %s has no subcommand %q (documented: go run ./cmd/%s %s ...)",
					inv.where, inv.tool, sub, inv.tool, strings.Join(inv.subcmds, " "))
			}
		}
		for _, fl := range inv.flags {
			re := regexp.MustCompile(`(^|[^-\w])-` + regexp.QuoteMeta(fl) + `([^-\w]|$)`)
			if !re.MatchString(corpus) {
				t.Errorf("%s: %s does not define flag -%s", inv.where, inv.tool, fl)
			}
		}
	}
}
