package analysis

import (
	"fmt"
	"go/types"
	"reflect"
	"sync"
)

// Fact is a marker interface for analyzer facts, mirroring x/tools. A fact
// attached to an object or package by one pass is visible to later passes of
// the same analyzer (packages are analyzed in dependency order, so facts flow
// along import edges) and to the analyzer's Finalize hook. Facts must be
// pointers to structs.
type Fact interface{ AFact() }

// FactStore holds object and package facts for a whole program run.
//
// Keys are strings — (package path, object name, fact type) — rather than
// types.Object identities, because the loader type-checks each package from
// source while its dependencies are imported from compiler export data: the
// "same" object is represented by distinct types.Object values on the two
// sides, but both agree on path and name. Only package-level objects carry
// facts, which is all the string key can address and all the analyzers need.
type FactStore struct {
	mu      sync.Mutex
	objects map[factKey]Fact
	pkgs    map[factKey]Fact
}

type factKey struct {
	pkg  string
	name string // empty for package facts
	typ  string
}

// NewFactStore returns an empty store.
func NewFactStore() *FactStore {
	return &FactStore{
		objects: make(map[factKey]Fact),
		pkgs:    make(map[factKey]Fact),
	}
}

// factType names a fact's dynamic type; facts of distinct types coexist on
// one key.
func factType(f Fact) string {
	t := reflect.TypeOf(f)
	for t.Kind() == reflect.Pointer {
		t = t.Elem()
	}
	return t.PkgPath() + "." + t.Name()
}

// copyFact copies the stored fact into the caller's *f of the same type.
func copyFact(src, dst Fact) {
	dv := reflect.ValueOf(dst)
	sv := reflect.ValueOf(src)
	if dv.Kind() != reflect.Pointer || sv.Kind() != reflect.Pointer {
		panic(fmt.Sprintf("analysis: facts must be pointers to structs, got %T and %T", src, dst))
	}
	dv.Elem().Set(sv.Elem())
}

// ExportObjectFact attaches a fact to a package-level object.
func (p *Pass) ExportObjectFact(obj types.Object, f Fact) {
	if obj == nil || obj.Pkg() == nil {
		return
	}
	p.facts.putObject(obj.Pkg().Path(), obj.Name(), f)
}

// ImportObjectFact copies the fact of the given type attached to obj into
// *f, reporting whether one was found. obj may come from a source-checked
// package or an export-data import; both resolve to the same fact.
func (p *Pass) ImportObjectFact(obj types.Object, f Fact) bool {
	if obj == nil || obj.Pkg() == nil {
		return false
	}
	return p.facts.getObject(obj.Pkg().Path(), obj.Name(), f)
}

// ExportPackageFact attaches a fact to the package being analyzed.
func (p *Pass) ExportPackageFact(f Fact) {
	p.facts.putPackage(p.Pkg.Path(), f)
}

// ImportPackageFact copies the fact of the given type attached to the
// package with the given path into *f, reporting whether one was found.
func (p *Pass) ImportPackageFact(path string, f Fact) bool {
	return p.facts.getPackage(path, f)
}

// PackageFact reads a package fact directly from the store (for Finalize
// hooks, which run without a Pass).
func (s *FactStore) PackageFact(path string, f Fact) bool {
	return s.getPackage(path, f)
}

func (s *FactStore) putObject(pkg, name string, f Fact) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.objects[factKey{pkg, name, factType(f)}] = f
}

func (s *FactStore) getObject(pkg, name string, f Fact) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	got, ok := s.objects[factKey{pkg, name, factType(f)}]
	if ok {
		copyFact(got, f)
	}
	return ok
}

func (s *FactStore) putPackage(pkg string, f Fact) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.pkgs[factKey{pkg: pkg, typ: factType(f)}] = f
}

func (s *FactStore) getPackage(pkg string, f Fact) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	got, ok := s.pkgs[factKey{pkg: pkg, typ: factType(f)}]
	if ok {
		copyFact(got, f)
	}
	return ok
}
