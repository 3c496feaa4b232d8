package checks

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

// Class is one loaded machine class: its declaration plus every case
// under it, sorted by name.
type Class struct {
	Machine *MachineClass
	Cases   []*Case
}

// Tree is a fully loaded checks/ directory.
type Tree struct {
	// Classes by name, and in sorted order for deterministic iteration.
	Classes map[string]*Class
	Order   []string
}

// LoadTree loads a checks/ directory:
//
//	checks/<machine-class>/machine.json
//	checks/<machine-class>/cases/<name>/case.json
//
// Every file must decode strictly (no unknown or repeated key),
// validate, and agree with its directory name;
// a tree with zero classes or a class with zero cases is an error
// (an empty regression surface should not look like a passing one).
func LoadTree(dir string) (*Tree, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("checks: %w", err)
	}
	t := &Tree{Classes: map[string]*Class{}}
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		cl, err := loadClass(filepath.Join(dir, e.Name()), e.Name())
		if err != nil {
			return nil, err
		}
		t.Classes[cl.Machine.Name] = cl
		t.Order = append(t.Order, cl.Machine.Name)
	}
	sort.Strings(t.Order)
	if len(t.Order) == 0 {
		return nil, fmt.Errorf("checks: no machine classes under %s", dir)
	}
	return t, nil
}

func loadClass(dir, name string) (*Class, error) {
	mpath := filepath.Join(dir, "machine.json")
	src, err := os.ReadFile(mpath)
	if err != nil {
		return nil, fmt.Errorf("checks: %w", err)
	}
	mc, err := decodeMachineClass(name, src)
	if err != nil {
		return nil, fmt.Errorf("%s: %v", mpath, err)
	}
	cl := &Class{Machine: mc}

	casesDir := filepath.Join(dir, "cases")
	entries, err := os.ReadDir(casesDir)
	if err != nil {
		return nil, fmt.Errorf("checks: class %s: %w", name, err)
	}
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		cpath := filepath.Join(casesDir, e.Name(), "case.json")
		src, err := os.ReadFile(cpath)
		if err != nil {
			return nil, fmt.Errorf("checks: %w", err)
		}
		cs, err := decodeCase(e.Name(), src)
		if err != nil {
			return nil, fmt.Errorf("%s: %v", cpath, err)
		}
		cs.inheritDefaults(mc)
		cl.Cases = append(cl.Cases, cs)
	}
	if len(cl.Cases) == 0 {
		return nil, fmt.Errorf("checks: class %s has no cases", name)
	}
	sort.Slice(cl.Cases, func(i, j int) bool { return cl.Cases[i].Name < cl.Cases[j].Name })
	return cl, nil
}

// SelectClass picks the machine class for a host with the given
// logical CPU count: the most demanding class (largest MinCPUs) the
// host satisfies, ties broken by name for determinism. Returns an
// error when no class matches.
func (t *Tree) SelectClass(cpus int) (*Class, error) {
	var best *Class
	for _, name := range t.Order {
		cl := t.Classes[name]
		if cl.Machine.MinCPUs > cpus {
			continue
		}
		if best == nil || cl.Machine.MinCPUs > best.Machine.MinCPUs {
			best = cl
		}
	}
	if best == nil {
		return nil, fmt.Errorf("checks: no machine class accepts a %d-CPU host", cpus)
	}
	return best, nil
}
