int q; int main() { q = 1; return q; }
