#include "rdf/rdfs.h"

#include <deque>

#include "rdf/namespaces.h"

namespace rdfa::rdf {

Vocab::Vocab(Graph* graph) {
  TermTable& t = graph->terms();
  type = t.InternIri(rdfns::kType);
  rdfs_class = t.InternIri(rdfsns::kClass);
  rdf_property = t.InternIri(rdfns::kProperty);
  sub_class_of = t.InternIri(rdfsns::kSubClassOf);
  sub_property_of = t.InternIri(rdfsns::kSubPropertyOf);
  domain = t.InternIri(rdfsns::kDomain);
  range = t.InternIri(rdfsns::kRange);
  label = t.InternIri(rdfsns::kLabel);
}

SchemaView::SchemaView(const Graph& graph, const Vocab& v) {
  // Declared classes.
  graph.ForEachMatch(kNoTermId, v.type, v.rdfs_class,
                     [&](const TripleId& t) { classes_.insert(t.s); });
  // Classes used as rdf:type objects.
  graph.ForEachMatch(kNoTermId, v.type, kNoTermId, [&](const TripleId& t) {
    if (t.o != v.rdfs_class && t.o != v.rdf_property) classes_.insert(t.o);
  });
  // Classes appearing in subClassOf.
  graph.ForEachMatch(kNoTermId, v.sub_class_of, kNoTermId,
                     [&](const TripleId& t) {
                       classes_.insert(t.s);
                       classes_.insert(t.o);
                       super_class_[t.s].insert(t.o);
                       sub_class_[t.o].insert(t.s);
                     });
  // Declared properties.
  graph.ForEachMatch(kNoTermId, v.type, v.rdf_property,
                     [&](const TripleId& t) { properties_.insert(t.s); });
  graph.ForEachMatch(kNoTermId, v.sub_property_of, kNoTermId,
                     [&](const TripleId& t) {
                       properties_.insert(t.s);
                       properties_.insert(t.o);
                       super_prop_[t.s].insert(t.o);
                       sub_prop_[t.o].insert(t.s);
                     });
  graph.ForEachMatch(kNoTermId, v.domain, kNoTermId, [&](const TripleId& t) {
    properties_.insert(t.s);
    classes_.insert(t.o);
    domain_[t.s].insert(t.o);
  });
  graph.ForEachMatch(kNoTermId, v.range, kNoTermId, [&](const TripleId& t) {
    properties_.insert(t.s);
    range_[t.s].insert(t.o);
  });
  // Properties used as predicates (minus the vocabulary itself).
  const std::set<TermId> vocab_props = {v.type, v.sub_class_of,
                                        v.sub_property_of, v.domain, v.range,
                                        v.label};
  graph.ForEachMatch(kNoTermId, kNoTermId, kNoTermId, [&](const TripleId& t) {
    if (vocab_props.count(t.p) == 0) properties_.insert(t.p);
  });
}

std::set<TermId> SchemaView::Closure(
    const std::map<TermId, std::set<TermId>>& edges, TermId start) {
  std::set<TermId> seen = {start};
  std::deque<TermId> work = {start};
  while (!work.empty()) {
    TermId cur = work.front();
    work.pop_front();
    auto it = edges.find(cur);
    if (it == edges.end()) continue;
    for (TermId next : it->second) {
      if (seen.insert(next).second) work.push_back(next);
    }
  }
  return seen;
}

std::set<TermId> SchemaView::DirectSuperclasses(TermId c) const {
  auto it = super_class_.find(c);
  return it == super_class_.end() ? std::set<TermId>{} : it->second;
}
std::set<TermId> SchemaView::DirectSubclasses(TermId c) const {
  auto it = sub_class_.find(c);
  return it == sub_class_.end() ? std::set<TermId>{} : it->second;
}
std::set<TermId> SchemaView::Superclasses(TermId c) const {
  return Closure(super_class_, c);
}
std::set<TermId> SchemaView::Subclasses(TermId c) const {
  return Closure(sub_class_, c);
}

std::vector<TermId> SchemaView::MaximalClasses() const {
  std::vector<TermId> out;
  for (TermId c : classes_) {
    auto it = super_class_.find(c);
    if (it == super_class_.end() || it->second.empty()) out.push_back(c);
  }
  return out;
}

std::set<TermId> SchemaView::DirectSuperproperties(TermId p) const {
  auto it = super_prop_.find(p);
  return it == super_prop_.end() ? std::set<TermId>{} : it->second;
}
std::set<TermId> SchemaView::DirectSubproperties(TermId p) const {
  auto it = sub_prop_.find(p);
  return it == sub_prop_.end() ? std::set<TermId>{} : it->second;
}
std::set<TermId> SchemaView::Superproperties(TermId p) const {
  return Closure(super_prop_, p);
}
std::set<TermId> SchemaView::Subproperties(TermId p) const {
  return Closure(sub_prop_, p);
}

std::vector<TermId> SchemaView::MaximalProperties() const {
  std::vector<TermId> out;
  for (TermId p : properties_) {
    auto it = super_prop_.find(p);
    if (it == super_prop_.end() || it->second.empty()) out.push_back(p);
  }
  return out;
}

std::set<TermId> SchemaView::Domains(TermId p) const {
  auto it = domain_.find(p);
  return it == domain_.end() ? std::set<TermId>{} : it->second;
}
std::set<TermId> SchemaView::Ranges(TermId p) const {
  auto it = range_.find(p);
  return it == range_.end() ? std::set<TermId>{} : it->second;
}

size_t MaterializeRdfsClosure(Graph* graph) {
  Vocab v(graph);
  SchemaView schema(*graph, v);
  size_t added = 0;

  // 1. Transitive closure of the subClassOf / subPropertyOf relations
  //    themselves (rdfs5, rdfs11).
  for (TermId c : schema.classes()) {
    for (TermId super : schema.Superclasses(c)) {
      if (super != c && graph->AddIds({c, v.sub_class_of, super})) ++added;
    }
  }
  for (TermId p : schema.properties()) {
    for (TermId super : schema.Superproperties(p)) {
      if (super != p && graph->AddIds({p, v.sub_property_of, super})) ++added;
    }
  }

  // 2. Property-instance propagation through subPropertyOf (rdfs7).
  //    Iterate over a snapshot: new triples use already-closed relations.
  std::vector<TripleId> snapshot =
      graph->Match(kNoTermId, kNoTermId, kNoTermId);
  for (const TripleId& t : snapshot) {
    std::set<TermId> supers = schema.Superproperties(t.p);
    for (TermId q : supers) {
      if (q != t.p && graph->AddIds({t.s, q, t.o})) ++added;
    }
  }

  // 3. Domain/range typing (rdfs2, rdfs3), over the propagated instances.
  snapshot = graph->Match(kNoTermId, kNoTermId, kNoTermId);
  for (const TripleId& t : snapshot) {
    for (TermId c : schema.Domains(t.p)) {
      if (graph->AddIds({t.s, v.type, c})) ++added;
    }
    for (TermId c : schema.Ranges(t.p)) {
      const Term& obj = graph->terms().Get(t.o);
      if (!obj.is_literal() && graph->AddIds({t.o, v.type, c})) ++added;
    }
  }

  // 4. Type propagation through subClassOf (rdfs9).
  snapshot = graph->Match(kNoTermId, v.type, kNoTermId);
  for (const TripleId& t : snapshot) {
    for (TermId super : schema.Superclasses(t.o)) {
      if (super != t.o && graph->AddIds({t.s, v.type, super})) ++added;
    }
  }
  return added;
}

}  // namespace rdfa::rdf
