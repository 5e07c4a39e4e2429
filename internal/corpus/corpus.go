// Package corpus manages a collection of project schema histories: the
// study's unit of analysis. It couples each project's repository with the
// derived artifacts (history, measures, labels) and the ground-truth
// pattern annotation, and provides the >12-months filtering step of §3.1
// and JSON persistence.
package corpus

import (
	"encoding/json"
	"fmt"
	"io"
	"os"

	"schemaevo/internal/core"
	"schemaevo/internal/history"
	"schemaevo/internal/metrics"
	"schemaevo/internal/quantize"
	"schemaevo/internal/vcs"
)

// Project is one repository under study plus everything derived from it.
type Project struct {
	Name string
	Repo *vcs.Repo
	// GroundTruth is the pattern annotation (in the paper: manual; here:
	// the generator's intent). Unclassified means unannotated.
	GroundTruth core.Pattern
	// Dialect is the SQL dialect the project's DDL was authored in (for
	// synthetic corpora: the generator's intent; empty means generic).
	// It is an annotation like GroundTruth, not an analysis input — the
	// pipeline's own dialect selection lives in pipeline.Options.Dialect.
	Dialect string

	// Derived fields, populated by Analyze.
	History  *history.History
	Measures metrics.Measures
	Labels   quantize.Labels
	// Analyzed reports whether the derived fields are valid.
	Analyzed bool
}

// Analyze runs the full pipeline for the project: history extraction,
// measures, quantization.
func (p *Project) Analyze(scheme quantize.Scheme) error {
	h, err := history.FromRepo(p.Repo)
	if err != nil {
		return fmt.Errorf("corpus: project %q: %w", p.Name, err)
	}
	p.History = h
	p.Measures = metrics.Compute(h)
	if err := p.Measures.Validate(); err != nil {
		return fmt.Errorf("corpus: project %q: %w", p.Name, err)
	}
	if p.Measures.HasSchema {
		p.Labels = quantize.Compute(p.Measures, scheme)
	}
	p.Analyzed = true
	return nil
}

// Assigned returns the pattern the project counts under: the ground
// truth when annotated, otherwise the nearest definitional pattern.
func (p *Project) Assigned() core.Pattern {
	if p.GroundTruth != core.Unclassified {
		return p.GroundTruth
	}
	if p.Analyzed && p.Measures.HasSchema {
		return core.ClassifyNearest(p.Labels)
	}
	return core.Unclassified
}

// Subject projects the fields the taxonomy needs.
func (p *Project) Subject() core.Subject {
	return core.Subject{Name: p.Name, Labels: p.Labels, Assigned: p.Assigned()}
}

// Corpus is an ordered project collection.
type Corpus struct {
	Projects []*Project
}

// Analyze runs the pipeline on every project, stopping at the first
// failure.
func (c *Corpus) Analyze(scheme quantize.Scheme) error {
	for _, p := range c.Projects {
		if err := p.Analyze(scheme); err != nil {
			return err
		}
	}
	return nil
}

// Len returns the number of projects.
func (c *Corpus) Len() int { return len(c.Projects) }

// FilterMinMonths returns the sub-corpus of projects whose lifetime
// exceeds the given number of months — the paper keeps projects with
// life span strictly greater than 12 months (§3.1).
func (c *Corpus) FilterMinMonths(months int) *Corpus {
	out := &Corpus{}
	for _, p := range c.Projects {
		if p.Repo.LifetimeMonths() > months {
			out.Projects = append(out.Projects, p)
		}
	}
	return out
}

// Subjects returns the taxonomy view of every analyzed project with a
// schema.
func (c *Corpus) Subjects() []core.Subject {
	var out []core.Subject
	for _, p := range c.Projects {
		if p.Analyzed && p.Measures.HasSchema {
			out = append(out, p.Subject())
		}
	}
	return out
}

// ByPattern groups the projects by their assigned pattern.
func (c *Corpus) ByPattern() map[core.Pattern][]*Project {
	out := map[core.Pattern][]*Project{}
	for _, p := range c.Projects {
		out[p.Assigned()] = append(out[p.Assigned()], p)
	}
	return out
}

// persisted is the JSON wire form of a corpus. WriteJSON encodes it with
// encoding/json; decodeProjects reads it back field for field.
type persisted struct {
	Projects []persistedProject `json:"projects"`
}

type persistedProject struct {
	Name        string    `json:"name"`
	GroundTruth string    `json:"ground_truth,omitempty"`
	Dialect     string    `json:"dialect,omitempty"`
	Repo        *vcs.Repo `json:"repo"`
}

// WriteJSON persists the corpus (repositories and annotations; derived
// fields are recomputed on load).
func (c *Corpus) WriteJSON(w io.Writer) error {
	var p persisted
	for _, prj := range c.Projects {
		pp := persistedProject{Name: prj.Name, Dialect: prj.Dialect, Repo: prj.Repo}
		if prj.GroundTruth != core.Unclassified {
			pp.GroundTruth = prj.GroundTruth.String()
		}
		p.Projects = append(p.Projects, pp)
	}
	enc := json.NewEncoder(w)
	if err := enc.Encode(p); err != nil {
		return fmt.Errorf("corpus: encoding: %w", err)
	}
	return nil
}

// ReadJSON loads a persisted corpus. Only whitespace may follow the
// corpus value.
func ReadJSON(r io.Reader) (*Corpus, error) {
	data, err := vcs.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("corpus: reading: %w", err)
	}
	projects, err := decodeProjects(data)
	if err != nil {
		return nil, fmt.Errorf("corpus: decoding: %w", err)
	}
	c := &Corpus{}
	for i, pp := range projects {
		if pp.Repo == nil {
			return nil, fmt.Errorf("corpus: project %d (%q) has no repo", i, pp.Name)
		}
		if err := pp.Repo.Validate(); err != nil {
			return nil, fmt.Errorf("corpus: project %q: %w", pp.Name, err)
		}
		prj := &Project{Name: pp.Name, Dialect: pp.Dialect, Repo: pp.Repo}
		if pp.GroundTruth != "" {
			gt, ok := core.ParsePattern(pp.GroundTruth)
			if !ok {
				return nil, fmt.Errorf("corpus: project %q: unknown pattern %q", pp.Name, pp.GroundTruth)
			}
			prj.GroundTruth = gt
		}
		c.Projects = append(c.Projects, prj)
	}
	return c, nil
}

var (
	persistedFields = []string{"projects"}
	projectFields   = []string{"name", "ground_truth", "dialect", "repo"}
)

// decodeProjects decodes the persisted envelope with the repository wire
// decoder (vcs.Reader), under the same encoding/json rules.
func decodeProjects(data []byte) ([]persistedProject, error) {
	r := vcs.NewReader(data)
	var projects []persistedProject
	if r.Object() {
		for f, ok := r.NextField(persistedFields); ok; f, ok = r.NextField(persistedFields) {
			if f == "projects" {
				vcs.Slice(r, &projects, func(p *persistedProject) { decodeProject(r, p) })
			} else {
				r.Skip()
			}
		}
	}
	return projects, r.End()
}

func decodeProject(r *vcs.Reader, p *persistedProject) {
	if !r.Object() {
		return
	}
	for f, ok := r.NextField(projectFields); ok; f, ok = r.NextField(projectFields) {
		switch f {
		case "name":
			r.String(&p.Name)
		case "ground_truth":
			r.String(&p.GroundTruth)
		case "dialect":
			r.String(&p.Dialect)
		case "repo":
			if r.Null() {
				p.Repo = nil
				continue
			}
			if p.Repo == nil {
				p.Repo = new(vcs.Repo)
			}
			r.Repo(p.Repo)
		default:
			r.Skip()
		}
	}
}

// SaveFile writes the corpus to a JSON file.
func (c *Corpus) SaveFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("corpus: %w", err)
	}
	defer f.Close()
	if err := c.WriteJSON(f); err != nil {
		return err
	}
	return f.Close()
}

// LoadFile reads a corpus from a JSON file.
func LoadFile(path string) (*Corpus, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("corpus: %w", err)
	}
	defer f.Close()
	return ReadJSON(f)
}
