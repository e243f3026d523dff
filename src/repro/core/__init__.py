"""The paper's contribution: the Palmtrie family plus its trie substrates."""

from .adaptive import AdaptiveMatcher
from .basic import BasicPalmtrie
from .frozen import FrozenMatcher, freeze
from .introspect import TrieShape, to_dot, trie_shape
from .multibit import MultibitPalmtrie
from .patricia import PatriciaTrie
from .poptrie import Poptrie
from .radix import RadixTree
from .serialize import deserialize_frozen, load_frozen, save_frozen, serialize_frozen
from .table import LookupStats, TernaryEntry, TernaryMatcher, build_matcher
from .ternary import TernaryKey, extract_chunk

__all__ = [
    "AdaptiveMatcher",
    "BasicPalmtrie",
    "FrozenMatcher",
    "LookupStats",
    "MultibitPalmtrie",
    "PatriciaTrie",
    "Poptrie",
    "RadixTree",
    "TernaryEntry",
    "TernaryKey",
    "TernaryMatcher",
    "TrieShape",
    "build_matcher",
    "deserialize_frozen",
    "extract_chunk",
    "freeze",
    "load_frozen",
    "save_frozen",
    "serialize_frozen",
    "to_dot",
    "trie_shape",
]
