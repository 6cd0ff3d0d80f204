package lint

import (
	"go/token"
	"path/filepath"
	"strconv"
	"strings"
)

// EscapeSite is one compiler finding that heap-allocates: a value that
// escapes to the heap or a variable moved there. Pos is relative to the
// module root, matching lint diagnostic positions exactly.
type EscapeSite struct {
	Pos token.Position
	Msg string
}

// parseEscapes extracts deduplicated heap-allocation sites from compiler
// -m -m output, keyed by module-root-relative slash path. Only
// heap-allocation findings are kept: "escapes to heap" and "moved to
// heap". Findings in dependencies (absolute paths) and compiler-generated
// code (<autogenerated>) are dropped. The verbose mode prints each finding
// twice (once with a trailing colon introducing the flow explanation), so
// sites are keyed on the colon-stripped message.
func parseEscapes(out string) map[string][]EscapeSite {
	sites := make(map[string][]EscapeSite)
	seen := make(map[string]bool)
	for _, line := range strings.Split(out, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		file, pos, msg, ok := splitDiag(line)
		if !ok {
			continue
		}
		if filepath.IsAbs(file) || strings.HasPrefix(file, "<") {
			continue // dependency or compiler-generated code
		}
		msg = strings.TrimSuffix(strings.TrimSpace(msg), ":")
		if !strings.Contains(msg, "escapes to heap") && !strings.Contains(msg, "moved to heap") {
			continue
		}
		file = strings.TrimPrefix(filepath.ToSlash(file), "./")
		key := file + ":" + strconv.Itoa(pos.Line) + ":" + strconv.Itoa(pos.Column) + ":" + msg
		if seen[key] {
			continue
		}
		seen[key] = true
		sites[file] = append(sites[file], EscapeSite{
			Pos: token.Position{Filename: file, Line: pos.Line, Column: pos.Column},
			Msg: msg,
		})
	}
	return sites
}

// splitDiag parses a `file:line:col: message` compiler line.
func splitDiag(line string) (file string, pos token.Position, msg string, ok bool) {
	// Split from the right of the position: file may not contain colons
	// (module-relative paths never do on this platform), but be defensive
	// and scan for the line:col: pattern.
	parts := strings.SplitN(line, ":", 4)
	if len(parts) != 4 {
		return "", pos, "", false
	}
	l, err1 := strconv.Atoi(parts[1])
	c, err2 := strconv.Atoi(parts[2])
	if err1 != nil || err2 != nil {
		return "", pos, "", false
	}
	return parts[0], token.Position{Line: l, Column: c}, parts[3], true
}
