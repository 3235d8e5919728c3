"""Index persistence.

Stores the full tree graph — node topology plus every entry's MBR and
per-cluster interval vectors at float64 precision — together with the
index configuration, cluster labels, outliers, and (for CIUR-trees) the
centroids needed to place future insertions.  Loading reconstructs a
fully functional tree against a fresh simulated disk; queries on the
loaded tree return byte-identical results.

The dataset is saved separately (:mod:`repro.io.dataset_io`) and must be
supplied at load time — an index without its collection is meaningless,
and keeping them apart lets several indexes share one dataset file.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, Union

from ..config import IndexConfig
from ..errors import IndexError_
from ..index.ciurtree import CIURTree
from ..index.entry import Entry
from ..index.iurtree import IURTree
from ..index.node import Node
from ..index.rtree import RTree
from ..model.dataset import STDataset
from ..spatial import Rect
from ..text import IntervalVector, SparseVector
from ..text.clustering import ClusteringResult

FORMAT_NAME = "repro-index"
FORMAT_VERSION = 1

PathLike = Union[str, Path]


def save_index(tree: IURTree, path: PathLike) -> None:
    """Write a (C)IUR-tree to ``path``."""
    cfg = tree.config
    clustering = getattr(tree, "clustering", None)
    payload = {
        "format": FORMAT_NAME,
        "version": FORMAT_VERSION,
        "kind": tree.kind,
        "config": {
            "max_entries": cfg.max_entries,
            "min_entries": cfg.min_entries,
            "page_size": cfg.page_size,
            "buffer_pages": cfg.buffer_pages,
            "num_clusters": cfg.num_clusters,
            "outlier_threshold": cfg.outlier_threshold,
            "use_entropy_priority": cfg.use_entropy_priority,
        },
        "labels_by_oid": {
            str(o.oid): label
            for o, label in zip(tree.dataset.objects, tree.labels)
        },
        "outlier_oids": [o.oid for o in tree.outliers],
        "centroids": (
            [{str(t): w for t, w in c.items()} for c in clustering.centroids]
            if clustering is not None
            else None
        ),
        "root_id": tree.rtree.root_id,
        "nodes": [
            _node_to_json(node) for node in tree.rtree.nodes.values()
        ],
    }
    Path(path).write_text(json.dumps(payload))


def load_index(path: PathLike, dataset: STDataset) -> IURTree:
    """Reconstruct an index saved by :func:`save_index`.

    ``dataset`` must be the collection the index was built over (same
    object ids); a saved dataset restores one exactly.
    """
    try:
        payload = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise IndexError_(f"cannot read index file {path}: {exc}") from exc
    if payload.get("format") != FORMAT_NAME:
        raise IndexError_(f"{path} is not a {FORMAT_NAME} file")
    if payload.get("version") != FORMAT_VERSION:
        raise IndexError_(
            f"unsupported index format version {payload.get('version')}"
        )

    cfg = IndexConfig(**payload["config"])
    labels_by_oid = {int(k): v for k, v in payload["labels_by_oid"].items()}
    dataset_oids = {o.oid for o in dataset.objects}
    if set(labels_by_oid) != dataset_oids:
        missing = sorted(dataset_oids - set(labels_by_oid))[:5]
        extra = sorted(set(labels_by_oid) - dataset_oids)[:5]
        raise IndexError_(
            "index/dataset mismatch — wrong dataset for this index? "
            f"(dataset-only ids: {missing}, index-only ids: {extra})"
        )
    labels = [labels_by_oid[o.oid] for o in dataset.objects]
    outliers = [dataset.get(oid) for oid in payload["outlier_oids"]]

    rtree = RTree(cfg.max_entries, cfg.min_entries)
    rtree.root_id = payload["root_id"]
    max_id = -1
    for spec in payload["nodes"]:
        node = _node_from_json(spec)
        rtree.nodes[node.node_id] = node
        max_id = max(max_id, node.node_id)
    rtree._next_node_id = max_id + 1

    cls = CIURTree if payload["kind"] == "ciur" else IURTree
    tree = cls(dataset, cfg, rtree, labels, outliers=outliers)
    if payload["centroids"] is not None:
        centroids = [
            SparseVector({int(t): w for t, w in c.items()})
            for c in payload["centroids"]
        ]
        tree.clustering = ClusteringResult(
            labels=list(labels), centroids=centroids, cohesion=[]
        )
    return tree


# ----------------------------------------------------------------------
# Node / entry codecs (JSON, float64-exact)
# ----------------------------------------------------------------------


def _node_to_json(node: Node) -> Dict:
    return {
        "node_id": node.node_id,
        "is_leaf": node.is_leaf,
        "parent_id": node.parent_id,
        "entries": [_entry_to_json(e) for e in node.entries],
    }


def _node_from_json(spec: Dict) -> Node:
    node = Node(
        node_id=spec["node_id"],
        is_leaf=spec["is_leaf"],
        parent_id=spec["parent_id"],
    )
    node.entries = [_entry_from_json(e) for e in spec["entries"]]
    return node


def _entry_to_json(entry: Entry) -> Dict:
    return {
        "ref": entry.ref,
        "mbr": list(entry.mbr.as_tuple()),
        "is_object": entry.is_object,
        "clusters": {
            str(cid): {
                "count": iv.doc_count,
                "int": {str(t): w for t, w in iv.intersection.items()},
                "uni": {str(t): w for t, w in iv.union.items()},
            }
            for cid, iv in entry.clusters.items()
        },
    }


def _entry_from_json(spec: Dict) -> Entry:
    clusters = {}
    for cid, c in spec["clusters"].items():
        clusters[int(cid)] = IntervalVector(
            SparseVector({int(t): w for t, w in c["int"].items()}),
            SparseVector({int(t): w for t, w in c["uni"].items()}),
            c["count"],
        )
    return Entry(
        ref=spec["ref"],
        mbr=Rect(*spec["mbr"]),
        is_object=spec["is_object"],
        clusters=clusters,
    )
