package history

import (
	"schemaevo/internal/schema"
	"schemaevo/internal/sqlddl"
	"schemaevo/internal/vcs"
)

// ParseVersions is ParseVersionsIn under the generic dialect on a pooled
// reconstructor: the parse stage of FromRepo for any DDL file of r.
func ParseVersions(r *vcs.Repo, path string) ([]ParsedVersion, error) {
	rc := schema.AcquireReconstructor()
	defer schema.ReleaseReconstructor(rc)
	return ParseVersionsIn(rc, r, path, sqlddl.Generic)
}
