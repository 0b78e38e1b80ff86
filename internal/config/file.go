package config

import (
	"encoding/json"
	"fmt"
	"io"

	"netupdate/internal/ltl"
	"netupdate/internal/topology"
)

// ScenarioFile is the JSON representation of a synthesis problem consumed
// by cmd/netupdate:
//
//	{
//	  "name": "my-update",
//	  "topology": {
//	    "switches": 4,
//	    "links": [[0,1],[0,2],[1,3],[2,3]],
//	    "hosts": [{"id":100,"switch":0},{"id":101,"switch":3}]
//	  },
//	  "classes": [{
//	    "name": "h100->h101", "src": 100, "dst": 101,
//	    "initPath": [0,1,3], "finalPath": [0,2,3],
//	    "spec": "sw=0 -> F sw=3"
//	  }]
//	}
type ScenarioFile struct {
	Name     string       `json:"name"`
	Topology TopologyFile `json:"topology"`
	Classes  []ClassFile  `json:"classes"`
}

// TopologyFile describes the switch graph and hosts.
type TopologyFile struct {
	Switches int        `json:"switches"`
	Links    [][2]int   `json:"links"`
	Hosts    []HostFile `json:"hosts"`
}

// HostFile attaches a host to a switch.
type HostFile struct {
	ID     int `json:"id"`
	Switch int `json:"switch"`
}

// ClassFile describes one traffic class: its endpoints, initial and final
// paths, and LTL specification in the textual syntax of internal/ltl.
type ClassFile struct {
	Name      string `json:"name"`
	Src       int    `json:"src"`
	Dst       int    `json:"dst"`
	InitPath  []int  `json:"initPath"`
	FinalPath []int  `json:"finalPath"`
	Spec      string `json:"spec"`
}

// LoadScenario parses and validates a JSON scenario.
func LoadScenario(r io.Reader) (*Scenario, error) {
	var sf ScenarioFile
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&sf); err != nil {
		return nil, fmt.Errorf("config: parsing scenario: %w", err)
	}
	return sf.Build()
}

// MaxSwitches bounds the switch count a topology description declares.
// A network holds memory for every declared switch, named by a link or
// not, so the count is the one number whose cost the description's length
// does not bound: a serving tenant keeps some 80 bytes per switch. The cap
// is ten times the largest network the paper evaluates (1 500 switches,
// Figure 8(g)).
const MaxSwitches = 1 << 14

// Build validates the topology description and constructs the switch
// graph with its hosts. It is shared by the scenario-file and
// scenario-stream loaders.
func (tf *TopologyFile) Build(name string) (*topology.Topology, error) {
	if tf.Switches <= 0 || tf.Switches > MaxSwitches {
		return nil, fmt.Errorf("config: %d switches, want 1 to %d", tf.Switches, MaxSwitches)
	}
	topo := topology.New(name, tf.Switches)
	for _, l := range tf.Links {
		if l[0] < 0 || l[0] >= tf.Switches || l[1] < 0 || l[1] >= tf.Switches {
			return nil, fmt.Errorf("config: link %v out of range", l)
		}
		if l[0] == l[1] {
			return nil, fmt.Errorf("config: link %v joins a switch to itself", l)
		}
		topo.AddLink(l[0], l[1])
	}
	seen := map[int]bool{}
	for _, h := range tf.Hosts {
		if seen[h.ID] {
			return nil, fmt.Errorf("config: duplicate host id %d", h.ID)
		}
		seen[h.ID] = true
		if h.Switch < 0 || h.Switch >= tf.Switches {
			return nil, fmt.Errorf("config: host %d on out-of-range switch %d", h.ID, h.Switch)
		}
		topo.AddHost(h.ID, h.Switch)
	}
	return topo, nil
}

// Build converts the parsed file into a validated Scenario.
func (sf *ScenarioFile) Build() (*Scenario, error) {
	topo, err := sf.Topology.Build(sf.Name)
	if err != nil {
		return nil, err
	}
	s := &Scenario{Name: sf.Name, Topo: topo, Init: New(), Final: New(), Feasible: true}
	for i, cf := range sf.Classes {
		cl := Class{Name: cf.Name, SrcHost: cf.Src, DstHost: cf.Dst}
		if cl.Name == "" {
			cl.Name = fmt.Sprintf("class%d", i)
		}
		if err := InstallPath(s.Init, topo, cl, cf.InitPath, 10); err != nil {
			return nil, fmt.Errorf("config: class %s init: %w", cl.Name, err)
		}
		if err := InstallPath(s.Final, topo, cl, cf.FinalPath, 10); err != nil {
			return nil, fmt.Errorf("config: class %s final: %w", cl.Name, err)
		}
		spec, err := ltl.Parse(cf.Spec)
		if err != nil {
			return nil, fmt.Errorf("config: class %s spec: %w", cl.Name, err)
		}
		s.Specs = append(s.Specs, ClassSpec{Class: cl, Formula: spec})
	}
	if len(s.Specs) == 0 {
		return nil, fmt.Errorf("config: scenario has no traffic classes")
	}
	return s, s.Validate()
}
