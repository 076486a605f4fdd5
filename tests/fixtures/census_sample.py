"""A module docstring
over three lines,
# with a hash inside."""

# a comment line
import os  # a trailing comment: still code

    
class Sample:
    """One-line class docstring."""

    label = """not a docstring:
code"""

    def method(self):
        '''Method docstring,

        with a blank line inside.'''
        # an indented comment
        return os.sep


def function():
    x = 1
    """A string after the first statement is code."""
    return x
